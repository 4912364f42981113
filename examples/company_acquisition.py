"""Section 2, scenario 1: business decision support via hypothetical worlds.

"Suppose I buy exactly one company. Assume one (key) employee leaves.
Which skills do I then still acquire for certain — and which targets
guarantee the skill 'Web'?"

Reproduces the U → V → W → Result walk-through of Section 2, printing
the intermediate world-sets exactly as the paper's tables show them.

Run:  python examples/company_acquisition.py
"""

from repro import ISQLSession
from repro.datagen import paper_company
from repro.isql import session_route
from repro.render import render_relation, render_world_set


def main() -> None:
    company_emp, emp_skills = paper_company()
    print(render_relation(company_emp, title="Company_Emp"))
    print()
    print(render_relation(emp_skills, title="Emp_Skills"))

    session = ISQLSession()
    session.register("Company_Emp", company_emp)
    session.register("Emp_Skills", emp_skills)

    print("\n--- 'Suppose I choose to buy exactly one company.' ---")
    session.run("U <- select * from Company_Emp choice of CID;")
    print(f"{session.world_count()} worlds (U1 = ACME, U2 = HAL)")

    print("\n--- 'Assume that one (key) employee leaves that company.' ---")
    session.run(
        """V <- select R1.CID, R1.EID
           from Company_Emp R1, (select * from U choice of EID) R2
           where R1.CID = R2.CID and R1.EID != R2.EID;"""
    )
    print(f"{session.world_count()} worlds (V1.1, V1.2, V2.1, V2.2, V2.3):")
    for index, world in enumerate(session.world_set.sorted_worlds(), start=1):
        print(f"  V in world {index}: {world['V'].sorted_rows()}")

    print("\n--- 'Which skills can I obtain for certain?' ---")
    session.run(
        """W <- select certain CID, Skill
           from V, Emp_Skills
           where V.EID = Emp_Skills.EID
           group worlds by (select CID from V);"""
    )
    for answer in sorted(
        {tuple(w["W"].sorted_rows()) for w in session.world_set.worlds}
    ):
        print(f"  W: {list(answer)}")

    print("\n--- 'Targets that guarantee the skill Web:' ---")
    query = "select possible CID from W where Skill = 'Web';"
    print(f"[inline route: {session_route(session, query)}]")
    result = session.query(query)
    print(render_relation(result.relation, title="Result"))


if __name__ == "__main__":
    main()
