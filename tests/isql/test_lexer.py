"""The I-SQL tokenizer."""

import pytest

from repro.errors import ParseError
from repro.isql import tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_are_case_insensitive(self):
        assert kinds("SELECT Possible froM") == [
            ("keyword", "select"),
            ("keyword", "possible"),
            ("keyword", "from"),
        ]

    def test_identifiers_keep_case(self):
        assert kinds("Company_Emp") == [("ident", "Company_Emp")]

    def test_numbers(self):
        assert kinds("42 3.14") == [("number", "42"), ("number", "3.14")]

    def test_number_followed_by_qualified_name(self):
        # "1.CID"-style positional qualifiers must not eat the dot.
        tokens = kinds("R1.CID")
        assert tokens == [("ident", "R1"), ("symbol", "."), ("ident", "CID")]

    def test_strings(self):
        assert kinds("'Web'") == [("string", "Web")]

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize("'oops")

    def test_two_char_symbols(self):
        assert kinds("<= >= != <> <-") == [
            ("symbol", "<="),
            ("symbol", ">="),
            ("symbol", "!="),
            ("symbol", "!="),
            ("symbol", "<-"),
        ]

    def test_unicode_assignment_arrow(self):
        assert kinds("U ← select")[1] == ("symbol", "<-")

    def test_comments_skipped(self):
        assert kinds("select -- a comment\n *") == [
            ("keyword", "select"),
            ("symbol", "*"),
        ]

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("select @")

    def test_eof_token_terminates(self):
        tokens = tokenize("select")
        assert tokens[-1].kind == "eof"

    def test_positions_recorded(self):
        tokens = tokenize("select Arr")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestAsciiNumbers:
    """Numbers are ASCII ``[0-9]`` only; other digits are rejected."""

    @pytest.mark.parametrize("digit", ["²", "٣", "５"])
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        source = f"select A from R where A = {digit};"
        with pytest.raises(ParseError, match="unexpected character") as caught:
            tokenize(source)
        assert caught.value.position == source.index(digit)

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_parse_script_raises_a_parse_error(self, digit):
        from repro.isql import parse_script

        with pytest.raises(ParseError, match="unexpected character"):
            parse_script(f"select A from R where A = {digit};")

    def test_non_ascii_digits_inside_an_identifier_stay_identifiers(self):
        assert kinds("A² B٣") == [("ident", "A²"), ("ident", "B٣")]

    def test_non_ascii_letters_start_identifiers(self):
        assert kinds("Größe") == [("ident", "Größe")]

    def test_malformed_number_is_a_parse_error(self):
        from repro.isql import parse_script

        with pytest.raises(ParseError, match="malformed number '1.2.3'"):
            parse_script("select A from R where A = 1.2.3;")

    def test_trailing_dot_before_a_name_is_not_part_of_the_number(self):
        assert kinds("1..A") == [
            ("number", "1."),
            ("symbol", "."),
            ("ident", "A"),
        ]
