"""Rule registry for colscore-lint.

Each module contributes one thematic family; RULES is the flat, id-sorted
list the driver runs.  Rule ids are stable and documented in ROADMAP.md
("Static analysis & concurrency hygiene"); never renumber an id, retire it.
"""

from . import workspace_ownership
from . import probe_discipline
from . import determinism
from . import registry_hygiene
from . import logging_discipline
from . import kernel_discipline
from . import execution_discipline
from . import parse_discipline

RULES = sorted(
    workspace_ownership.RULES
    + probe_discipline.RULES
    + determinism.RULES
    + registry_hygiene.RULES
    + logging_discipline.RULES
    + kernel_discipline.RULES
    + execution_discipline.RULES
    + parse_discipline.RULES,
    key=lambda r: r.rule_id,
)

KNOWN_IDS = {r.rule_id for r in RULES} | {"CL000"}
