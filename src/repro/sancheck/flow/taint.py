"""Interprocedural effect propagation to a fixpoint.

A function's **summary** is its intrinsic effects unioned with every
callee's summary.  Because the lattice is a finite powerset and the
transfer function is monotone union, iterating to a fixpoint terminates;
we iterate over functions in sorted order so the result — including the
witness *chains* — is deterministic, independent of dict insertion order
or worker count.

Each propagated effect keeps one witness chain (first one discovered
under the sorted iteration): the path of qualnames from the summarized
function down to the function whose own body introduces the effect, plus
the concrete site.  Verdict messages print these chains, which is what
makes a whole-program finding actionable ("``checkpoint`` reaches
``random.random()`` via ``_helper``") instead of a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sancheck.flow.callgraph import ProjectIndex
from repro.sancheck.flow.effects import IntrinsicMap


@dataclass(frozen=True)
class Witness:
    """How an effect reaches a function: the call chain and ground site."""

    chain: Tuple[str, ...]  # qualnames, self first, intrinsic holder last
    site: str
    file: str
    line: int

    def describe(self) -> str:
        """The chain with the ``repro.`` package prefix dropped."""
        hops = " -> ".join(c.removeprefix("repro.") for c in self.chain)
        return f"{hops} -> {self.site} ({self.file}:{self.line})"


#: function qualname -> {effect: Witness}
SummaryMap = Dict[str, Dict[str, Witness]]


def propagate(index: ProjectIndex, intrinsics: IntrinsicMap) -> SummaryMap:
    """Union effects up the call graph until nothing changes."""
    summaries: SummaryMap = {}
    for q in sorted(index.functions):
        fn = index.functions[q]
        summaries[q] = {
            effect: Witness(
                chain=(q,), site=intr.site, file=fn.file, line=intr.line
            )
            for effect, intr in sorted(intrinsics.get(q, {}).items())
        }

    order = sorted(index.functions)
    callees: Dict[str, List[str]] = {
        q: sorted({c for c, _line in index.functions[q].calls})
        for q in order
    }
    changed = True
    while changed:
        changed = False
        for q in order:
            mine = summaries[q]
            for callee in callees[q]:
                for effect, w in summaries.get(callee, {}).items():
                    if effect in mine:
                        continue
                    if q in w.chain:
                        # recursion: adopt the effect, keep the short chain
                        mine[effect] = Witness(
                            chain=w.chain, site=w.site, file=w.file, line=w.line
                        )
                    else:
                        mine[effect] = Witness(
                            chain=(q,) + w.chain,
                            site=w.site,
                            file=w.file,
                            line=w.line,
                        )
                    changed = True
    return summaries
