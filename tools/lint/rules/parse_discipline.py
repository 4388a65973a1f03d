"""CL013: numbers are parsed in one place.

Every untrusted number -- CLI flags, scenario overrides, suite-file counts,
fault specs, resumed artifact cells -- goes through src/common/parse.hpp
(parse_u64 / parse_f64 over std::from_chars, whole text, no sign for
unsigned values, no whitespace, no overflow).  The stdlib parsers each
accept more than they should: std::stoull and strtoull skip leading
whitespace and wrap " -1" to 2^64-1, and std::stod takes "+1", " 1" and hex
floats.  Hand-written copies of the strict checks drift apart, so the raw
spellings are banned outside the one owner.
"""

from __future__ import annotations

from typing import List

from engine import Diagnostic, LintContext, Rule, SourceFile, make_diag

_RAW_PARSERS = {"stoull", "stoul", "stod", "stof", "strtoull", "strtod"}


def _check(sf: SourceFile, ctx: LintContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    toks = sf.tokens
    for i, tok in enumerate(toks):
        if not tok.is_ident or tok.text not in _RAW_PARSERS:
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prv = toks[i - 1].text if i > 0 else ""
        if nxt == "(" and prv not in (".", "->"):
            out.append(make_diag(
                RULE, sf, tok.line, tok.col,
                f"raw {tok.text}() accepts padded, signed or wrapped numbers; "
                "parse through parse_u64/parse_f64 (src/common/parse.hpp)"))
    return out


RULE = Rule(
    rule_id="CL013",
    slug="raw-number-parse",
    description="No std::stoull/stoul/stod/stof or strtoull/strtod in src/ "
                "or tools/ -- text becomes a number only through "
                "src/common/parse.hpp, so every input accepts the same "
                "strict spellings.",
    hint="const std::optional<std::uint64_t> v = parse_u64(text); "
         "if (!v) <your error>; keep the caller's own error text and range "
         "checks",
    check=_check,
    scope=("src/", "tools/"),
    exclude=("src/common/parse.hpp",),
)

RULES = [RULE]
