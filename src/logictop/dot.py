"""Graphviz export of orders and spaces.

Only covering edges are drawn (the Hasse diagram); the full order is
recoverable from transitivity and available through the JSON formats.
Spaces are drawn as their specialization order (the index upsets) with
the basis listed in a comment legend.  Output is deterministic line for line.
"""

from __future__ import annotations

from .builders import FinitePoset, _bitrows, cover_edges
from .topology import FiniteSpace


def _digraph(names: tuple[str, ...], up: list[int], legend: list[str]) -> str:
    lines = ["digraph {"]
    lines += [f"  // {entry}" for entry in legend]
    lines += [f'  "{s}";' for s in names]
    lines += [f'  "{names[i]}" -> "{names[j]}";' for i, j in cover_edges(up)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj: FinitePoset | FiniteSpace) -> str:
    if isinstance(obj, FinitePoset):
        return _digraph(obj.element_names, _bitrows(obj.leq), [])
    if isinstance(obj, FiniteSpace):
        legend = [
            "basis {} = {{{}}}".format(
                obj.basis_names[i], ",".join(obj.point_names[p] for p in sorted(b))
            )
            for i, b in enumerate(obj.basis)
        ]
        return _digraph(obj.point_names, [up for _, up in obj._index.upsets], legend)
    raise TypeError(f"cannot draw {type(obj).__name__}")
