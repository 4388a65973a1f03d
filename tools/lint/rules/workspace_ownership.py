"""CL001: RunWorkspace buffer-group ownership.

The per-thread RunWorkspace (src/common/workspace.hpp) groups its scratch
buffers by owner prefix (sel_, pf_, zr_, ze_, vt_, sr_, cp_, probe_*).  The
contract -- nested frames on one thread are live simultaneously, so a
function may only touch its own group -- exists in ROADMAP prose; this rule
makes it executable.  The member list is parsed out of workspace.hpp itself,
so adding a buffer automatically extends enforcement, and the prefix->owner
map below is the single place the ownership table lives.
"""

from __future__ import annotations

import re
from typing import List

from engine import Diagnostic, LintContext, Rule, SourceFile, make_diag

WORKSPACE_HEADER = "src/common/workspace.hpp"

# Which translation units own each buffer group.  A group may list several
# files (a .cpp and the header that inlines part of the family).
GROUP_OWNERS = {
    "probe": ("src/board/probe_oracle.cpp", "src/board/probe_oracle.hpp"),
    "sel": ("src/protocols/select.cpp",),
    "pf": ("src/protocols/select.cpp",),
    "zr": ("src/protocols/zero_radius.cpp",),
    "ze": ("src/protocols/zero_radius.cpp",),
    "vt": ("src/protocols/work_share.cpp",),
    "sr": ("src/protocols/small_radius.cpp",),
    "nb": ("src/protocols/neighbor_graph.cpp",),
    "cp": ("src/core/calculate_preferences.cpp",),
}

# The workspace's own files may of course name every member.
ALWAYS_ALLOWED = ("src/common/workspace.hpp", "src/common/workspace.cpp")

_MEMBER_RE = re.compile(
    r"^\s*(?:std::|Bit)[\w:<>,\s*&]*?[>\s&*]\s*([A-Za-z_]\w*)\s*;", re.M)

_members_cache = None


def workspace_members(ctx: LintContext):
    """name -> group prefix, parsed from workspace.hpp member declarations."""
    global _members_cache
    if _members_cache is not None:
        return _members_cache
    text = ctx.read_repo_file(WORKSPACE_HEADER)
    members = {}
    if text is not None:
        # Strip comments so commented-out members do not register.
        text = re.sub(r"//[^\n]*", "", text)
        for m in _MEMBER_RE.finditer(text):
            name = m.group(1)
            prefix = name.split("_", 1)[0]
            if prefix in GROUP_OWNERS:
                members[name] = prefix
    _members_cache = members
    return members


def _check(sf: SourceFile, ctx: LintContext) -> List[Diagnostic]:
    if sf.effective_path in ALWAYS_ALLOWED:
        return []
    members = workspace_members(ctx)
    if not members:
        return []
    out: List[Diagnostic] = []
    for tok in sf.tokens:
        if not tok.is_ident:
            continue
        group = members.get(tok.text)
        if group is None:
            continue
        owners = GROUP_OWNERS[group]
        if sf.effective_path in owners:
            continue
        out.append(make_diag(
            RULE, sf, tok.line, tok.col,
            f"workspace buffer '{tok.text}' belongs to the {group}_ group "
            f"owned by {owners[0]}; nested frames share the thread's "
            "workspace, so foreign-group access aliases live state"))
    return out


RULE = Rule(
    rule_id="CL001",
    slug="workspace-group-ownership",
    description="RunWorkspace buffer groups may only be touched by their "
                "owning translation unit (see src/common/workspace.hpp).",
    hint="add a buffer to this function family's own group in "
         "src/common/workspace.hpp instead of borrowing another group's",
    check=_check,
    scope=("src/", "tools/"),
)

RULES = [RULE]
