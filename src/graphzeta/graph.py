"""Metric graphs, matching conditions, JSON input and validation.

Bond coordinates run from 0 at the origin vertex to L at the terminus and
bonds are stored with origin <= terminus.  Boundary values of a function
psi on the graph are collected in slot order: slot b is the start of bond
b, slot B + b its end.  Matching conditions are A psi + B psihat = 0 with
psihat the inward covariant derivatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import GraphFormatError, ValidationError
from .potentials import (ConstantPotential, _as_float, potential_from_dict,
                         spectral_floor)

VERTEX_KINDS = ("dirichlet", "neumann", "delta", "custom")


@dataclass(frozen=True)
class Bond:
    id: int
    origin: int
    terminus: int
    length: float
    vector_potential: float
    potential: object


@dataclass(frozen=True)
class MetricGraph:
    vertex_count: int
    bonds: tuple

    @property
    def bond_count(self) -> int:
        return len(self.bonds)

    def total_length(self) -> float:
        return sum(b.length for b in self.bonds)

    def slots(self, vertex: int):
        """Boundary-value slots incident at a vertex, in slot order."""
        B = len(self.bonds)
        out = [i for i, b in enumerate(self.bonds) if b.origin == vertex]
        out += [B + i for i, b in enumerate(self.bonds) if b.terminus == vertex]
        return sorted(out)

    def degree(self, vertex: int) -> int:
        return len(self.slots(vertex))

    def bond_by_id(self, bond_id) -> Bond:
        # ids are integers in the document format, but the CLI hands the
        # flag value through as text
        for b in self.bonds:
            if b.id == bond_id or str(b.id) == str(bond_id):
                return b
        raise GraphFormatError(f"no bond with id '{bond_id}'")

    def spectral_floor(self) -> float:
        """Smallest t at which q = t^2 + V is safely positive on every bond."""
        return max(spectral_floor(b.potential, b.length) for b in self.bonds)


@dataclass(frozen=True)
class VertexSpec:
    vertex: int
    kind: str
    lam: float = 0.0
    a: object = None
    b: object = None


class MatchingConditions:
    """Pair of 2B x 2B matrices defining A psi + B psihat = 0."""

    def __init__(self, A, B, *, local: bool, vertex_specs=None):
        # own read-only copies: setups is computed from them, and an edit
        # in place through the caller's array would leave it stale
        self.A = np.array(A, dtype=complex)
        self.B = np.array(B, dtype=complex)
        self.A.flags.writeable = self.B.flags.writeable = False
        self.local = local
        self.vertex_specs = tuple(vertex_specs) if vertex_specs else None
        # per graph, the checked large-t set-up of secular.checked_asymptotics
        self.setups = {}


def build_vertex_conditions(graph: MetricGraph, specs) -> MatchingConditions:
    """Assemble local matching matrices from per-vertex specifications.

    Rows for a vertex occupy its own slot indices, so the assembled pair
    is block diagonal up to the slot permutation.
    """
    n = 2 * graph.bond_count
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    seen = set()
    for spec in specs:
        v = spec.vertex
        if v in seen:
            raise GraphFormatError(f"vertex {v} specified twice")
        seen.add(v)
        if not 0 <= v < graph.vertex_count:
            raise GraphFormatError(f"vertex {v} out of range")
        slots = graph.slots(v)
        m = len(slots)
        if m == 0:
            raise GraphFormatError(f"vertex {v} has no incident bonds")
        if spec.kind == "dirichlet":
            for s in slots:
                A[s, s] = 1.0
        elif spec.kind in ("neumann", "delta"):
            lam = 0.0 if spec.kind == "neumann" else spec.lam
            for i in range(m - 1):
                A[slots[i], slots[i]] = 1.0
                A[slots[i], slots[i + 1]] = -1.0
            last = slots[-1]
            A[last, slots[0]] = -lam
            for s in slots:
                B[last, s] = 1.0
        elif spec.kind == "custom":
            av = np.asarray(spec.a, dtype=complex)
            bv = np.asarray(spec.b, dtype=complex)
            if av.shape != (m, m) or bv.shape != (m, m):
                raise GraphFormatError(
                    f"custom matrices at vertex {v} must be {m}x{m}")
            for i, si in enumerate(slots):
                for j, sj in enumerate(slots):
                    A[si, sj] = av[i, j]
                    B[si, sj] = bv[i, j]
        else:
            raise GraphFormatError(f"unknown vertex kind '{spec.kind}'")
    missing = [v for v in range(graph.vertex_count) if v not in seen]
    if missing:
        raise GraphFormatError(f"no matching conditions for vertices {missing}")
    return MatchingConditions(A, B, local=True, vertex_specs=specs)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return ["{} {}: {}".format("ok  " if c.passed else "FAIL",
                                   c.name, c.detail)
                for c in self.checks]


def validate_matching(graph: MetricGraph, mc: MatchingConditions) -> ValidationReport:
    """Check shape, maximal rank and self-adjointness of the condition pair."""
    n = 2 * graph.bond_count
    checks = []

    ok = mc.A.shape == (n, n) and mc.B.shape == (n, n)
    checks.append(ValidationCheck("shape", ok,
                                  f"matrices are {mc.A.shape} and {mc.B.shape},"
                                  f" expected ({n}, {n})"))
    if not ok:
        return ValidationReport(tuple(checks))

    stacked = np.hstack([mc.A, mc.B])
    svals = np.linalg.svd(stacked, compute_uv=False)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > 1e-12 * max(smax, 1.0)))
    checks.append(ValidationCheck("rank", rank == n,
                                  f"rank of the stacked pair is {rank} of {n}"))

    defect = np.linalg.norm(mc.A @ mc.B.conj().T - mc.B @ mc.A.conj().T, 2)
    scale = max(1.0, smax * smax)
    checks.append(ValidationCheck(
        "self-adjoint", defect <= 1e-12 * scale,
        f"|A B* - B A*| = {defect:.3e} against scale {scale:.3e}"))

    if mc.local:
        slot_owner = np.empty(n, dtype=int)
        for v in range(graph.vertex_count):
            for s in graph.slots(v):
                slot_owner[s] = v
        stray = 0.0
        for i in range(n):
            for j in range(n):
                if slot_owner[i] != slot_owner[j]:
                    stray = max(stray, abs(mc.A[i, j]), abs(mc.B[i, j]))
        checks.append(ValidationCheck(
            "locality", stray <= 1e-14,
            f"largest entry coupling different vertices is {stray:.3e}"))

    return ValidationReport(tuple(checks))


def require_valid(graph: MetricGraph, mc: MatchingConditions) -> None:
    report = validate_matching(graph, mc)
    if not report.passed:
        raise ValidationError("matching conditions rejected:\n"
                              + "\n".join(report.lines()))


def _is_int(x) -> bool:
    # a JSON true or false arrives as bool, which subclasses int
    return isinstance(x, int) and not isinstance(x, bool)


def _as_complex(x, what: str) -> complex:
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise GraphFormatError(f"{what}: complex entries are [re, im]")
        return complex(_as_float(x[0], what), _as_float(x[1], what))
    return complex(_as_float(x, what))


def _complex_matrix(rows, n: int, what: str):
    if not isinstance(rows, list) or len(rows) != n:
        raise GraphFormatError(f"{what} must be a {n}x{n} matrix")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise GraphFormatError(f"{what} must be a {n}x{n} matrix")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"{what}[{i}][{j}]")
    return out


def _require_compact_bump(bid, pot, length: float) -> None:
    if pot.kind == "bump" and not pot.compact(length):
        raise GraphFormatError(
            f"bond {bid}: bump support must lie strictly inside (0, L)")


def parse_graph(text: str, validate: bool = True):
    """Parse a JSON graph document into (MetricGraph, MatchingConditions)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")

    try:
        vcount = doc["vertices"]
        bond_docs = doc["bonds"]
        matching_doc = doc["matching"]
    except KeyError as exc:
        raise GraphFormatError(f"missing top-level field {exc}") from exc
    if not _is_int(vcount) or vcount < 1:
        raise GraphFormatError("'vertices' must be a positive integer")
    if not isinstance(bond_docs, list) or not bond_docs:
        raise GraphFormatError("'bonds' must be a non-empty list")

    # the document numbers vertices 1..V and bond ids 1..B; internally both
    # drop to 0-based vertex indices while bond ids stay as written
    nb = len(bond_docs)
    bonds = []
    seen_ids = set()
    for bd in bond_docs:
        if not isinstance(bd, dict):
            raise GraphFormatError("each bond must be an object")
        try:
            bid = bd["id"]
            origin = bd["origin"]
            terminus = bd["terminus"]
            length = _as_float(bd["length"], "bond length")
        except KeyError as exc:
            raise GraphFormatError(f"bond missing field {exc}") from exc
        if not _is_int(bid) or not 1 <= bid <= nb:
            raise GraphFormatError(
                f"bond id must be an integer between 1 and {nb}, got {bid!r}")
        if bid in seen_ids:
            raise GraphFormatError(f"duplicate bond id {bid}")
        seen_ids.add(bid)
        if not _is_int(origin) or not _is_int(terminus):
            raise GraphFormatError(f"bond {bid}: endpoints must be integers")
        if not (1 <= origin <= vcount and 1 <= terminus <= vcount):
            raise GraphFormatError(
                f"bond {bid}: endpoints must be vertices between 1 and {vcount}")
        if origin > terminus:
            raise GraphFormatError(
                f"bond {bid}: store bonds with origin <= terminus")
        if length <= 0.0:
            raise GraphFormatError(f"bond {bid}: length must be positive")
        pot = (potential_from_dict(bd["potential"]) if "potential" in bd
               else ConstantPotential(0.0))
        _require_compact_bump(bid, pot, length)
        vp = _as_float(bd.get("vector_potential", 0.0),
                       f"bond {bid} vector_potential")
        bonds.append(Bond(id=bid, origin=origin - 1, terminus=terminus - 1,
                          length=length, vector_potential=vp, potential=pot))

    graph = MetricGraph(vertex_count=vcount, bonds=tuple(bonds))

    if not isinstance(matching_doc, dict) or "mode" not in matching_doc:
        raise GraphFormatError("'matching' must be an object with a 'mode'")
    mode = matching_doc["mode"]
    n = 2 * graph.bond_count
    if mode == "per_vertex":
        entries = matching_doc.get("vertices")
        if not isinstance(entries, list):
            raise GraphFormatError("per_vertex matching needs a 'vertices' list")
        specs = []
        seen_vertices = set()
        for entry in entries:
            if not isinstance(entry, dict):
                raise GraphFormatError("each vertex entry must be an object")
            try:
                v = entry["vertex"]
                kind = entry["kind"]
            except KeyError as exc:
                raise GraphFormatError(f"vertex entry missing {exc}") from exc
            if not _is_int(v) or not 1 <= v <= vcount:
                raise GraphFormatError(
                    f"vertex index must be an integer between 1 and {vcount}, "
                    f"got {v!r}")
            if v in seen_vertices:
                raise GraphFormatError(f"vertex {v} specified twice")
            seen_vertices.add(v)
            if kind not in VERTEX_KINDS:
                raise GraphFormatError(f"unknown vertex kind '{kind}'")
            lam = 0.0
            av = bv = None
            if kind == "delta":
                lam = _as_float(entry.get("lambda", 0.0),
                                f"vertex {v} lambda")
            if kind == "custom":
                m = graph.degree(v - 1)
                if "A" not in entry or "B" not in entry:
                    raise GraphFormatError(
                        f"custom vertex {v} needs matrices 'A' and 'B'")
                av = _complex_matrix(entry["A"], m, f"vertex {v} A")
                bv = _complex_matrix(entry["B"], m, f"vertex {v} B")
            specs.append(VertexSpec(vertex=v - 1, kind=kind, lam=lam,
                                    a=av, b=bv))
        missing = sorted(set(range(1, vcount + 1)) - seen_vertices)
        if missing:
            raise GraphFormatError(
                "matching conditions missing for vertex "
                + ", ".join(str(v) for v in missing))
        mc = build_vertex_conditions(graph, specs)
    elif mode == "global":
        if "A" not in matching_doc or "B" not in matching_doc:
            raise GraphFormatError("global matching needs matrices 'A' and 'B'")
        A = _complex_matrix(matching_doc["A"], n, "matching A")
        B = _complex_matrix(matching_doc["B"], n, "matching B")
        mc = MatchingConditions(A, B, local=False)
    else:
        raise GraphFormatError(f"unknown matching mode '{mode}'")

    if validate:
        require_valid(graph, mc)
    return graph, mc


def load_graph(path: str, validate: bool = True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read(), validate=validate)


def _complex_out(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def serialize_graph(graph: MetricGraph, mc: MatchingConditions) -> str:
    bonds = []
    for b in graph.bonds:
        bd = {"id": b.id, "origin": b.origin + 1, "terminus": b.terminus + 1,
              "length": b.length}
        if b.vector_potential != 0.0:
            bd["vector_potential"] = b.vector_potential
        if b.potential != ConstantPotential(0.0):
            bd["potential"] = b.potential.to_dict()
        bonds.append(bd)
    if mc.local and mc.vertex_specs is not None:
        entries = []
        for spec in mc.vertex_specs:
            e = {"vertex": spec.vertex + 1, "kind": spec.kind}
            if spec.kind == "delta":
                e["lambda"] = spec.lam
            if spec.kind == "custom":
                e["A"] = [[_complex_out(z) for z in row] for row in spec.a]
                e["B"] = [[_complex_out(z) for z in row] for row in spec.b]
            entries.append(e)
        matching = {"mode": "per_vertex", "vertices": entries}
    else:
        matching = {"mode": "global",
                    "A": [[_complex_out(z) for z in row] for row in mc.A],
                    "B": [[_complex_out(z) for z in row] for row in mc.B]}
    doc = {"vertices": graph.vertex_count, "bonds": bonds, "matching": matching}
    return json.dumps(doc, indent=2)


def replace_bond_length(graph: MetricGraph, bond_id,
                        new_length: float) -> MetricGraph:
    new_length = _as_float(new_length, "bond length")
    if new_length <= 0.0:
        raise GraphFormatError("bond length must stay positive")
    bond = graph.bond_by_id(bond_id)
    _require_compact_bump(bond.id, bond.potential, new_length)
    new_bonds = tuple(replace(b, length=new_length) if b.id == bond.id else b
                      for b in graph.bonds)
    return MetricGraph(vertex_count=graph.vertex_count, bonds=new_bonds)
