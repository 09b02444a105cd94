"""Graphviz export of orders and spaces.

Only covering edges are drawn (the Hasse diagram); the full order is
recoverable from transitivity and available through the JSON formats.
Spaces are drawn as their specialization order with the basis listed in
a comment legend.  Output is deterministic line for line.
"""

from __future__ import annotations

from .builders import FinitePoset, cover_edges
from .topology import FiniteSpace, SpecializationOrder, specialization_order


def _digraph(names: tuple[str, ...], matrix, legend: list[str]) -> str:
    lines = ["digraph {"]
    lines += [f"  // {entry}" for entry in legend]
    lines += [f'  "{s}";' for s in names]
    lines += [f'  "{names[i]}" -> "{names[j]}";' for i, j in cover_edges(matrix)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj: FinitePoset | SpecializationOrder | FiniteSpace) -> str:
    if isinstance(obj, FinitePoset):
        return _digraph(obj.element_names, obj.leq, [])
    if isinstance(obj, SpecializationOrder):
        return _digraph(obj.point_names, obj.matrix, [])
    if isinstance(obj, FiniteSpace):
        legend = [
            "basis {} = {{{}}}".format(
                obj.basis_names[i], ",".join(obj.point_names[p] for p in sorted(b))
            )
            for i, b in enumerate(obj.basis)
        ]
        order = specialization_order(obj)
        return _digraph(obj.point_names, order.matrix, legend)
    raise TypeError(f"cannot draw {type(obj).__name__}")
