"""Spec texts, seeded inputs, and the references the benchmark checks
results against.

The program under test receives only ``Spec.text`` and the arrays of
:func:`make_inputs`.  References are written here in plain numpy over
the *unoptimised* terms of each spec and never call the pipeline or
``repro.engine.executor``: a bug shared by every executor of the
package cannot hide in them.

Inputs are uniform on [0.5, 1.5), so no result element is a near-zero
difference of large terms and an elementwise relative tolerance is
meaningful.  ``tag`` renames every tensor of a spec: the plan-cache key
changes (the spec has never been seen) while the work stays the same,
which is how ``serve_mix`` sends never-seen requests of a fixed cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

Arrays = Mapping[str, np.ndarray]
#: one additive term of a statement: coefficient, einsum subscripts, operands
Term = Tuple[float, str, Tuple[str, ...]]


@dataclass(frozen=True)
class Spec:
    name: str
    text: str
    shapes: Mapping[str, Tuple[int, ...]]
    output: str
    reference: Callable[[Arrays], np.ndarray]
    semiring: str = "plus_times"
    #: declared fill of sparse inputs (the generator zeroes the rest)
    fills: Mapping[str, float] = field(default_factory=dict)

    @property
    def rtol(self) -> float:
        return 1e-9 if self.semiring == "plus_times" else 1e-12


#: numpy picks its own pairwise order; the explicit limit only lifts
#: ``optimize=True``'s cap on intermediates (the largest operand), under
#: which Fig. 1 falls back to the ten-deep direct loop nest
_OPTIMIZE = ("optimal", 2 ** 40)


def _einsum_reference(terms: Sequence[Term]) -> Callable[[Arrays], np.ndarray]:
    def reference(arrays: Arrays) -> np.ndarray:
        total = None
        for coef, subscripts, names in terms:
            value = coef * np.einsum(
                subscripts, *(arrays[n] for n in names), optimize=_OPTIMIZE
            )
            total = value if total is None else total + value
        return total

    return reference


def ccsd(V: int, O: int, tag: str = "") -> Spec:
    """The CCSD-doubles residual: five terms, one of them quadratic."""
    n = lambda base: base + tag  # noqa: E731
    text = f"""
    range V = {V};
    range O = {O};
    index a, b, c, d, e : V;
    index i, j, k, l, m : O;
    tensor {n('Fae')}(a, e);
    tensor {n('Fmi')}(m, i);
    tensor {n('T2')}(a, b, i, j);
    tensor {n('Wabef')}(a, b, e, d);
    tensor {n('Wmnij')}(m, l, i, j);
    tensor {n('Vmnef')}(m, l, e, d);
    {n('R')}(a, b, i, j) = sum(e) {n('Fae')}(a, e) * {n('T2')}(e, b, i, j)
        - sum(m) {n('Fmi')}(m, i) * {n('T2')}(a, b, m, j)
        + sum(e, d) {n('Wabef')}(a, b, e, d) * {n('T2')}(e, d, i, j)
        + sum(m, l) {n('Wmnij')}(m, l, i, j) * {n('T2')}(a, b, m, l)
        + sum(m, l, e, d) {n('Vmnef')}(m, l, e, d) * {n('T2')}(a, e, i, m)
                        * {n('T2')}(d, b, l, j);
    """
    terms: List[Term] = [
        (1.0, "ae,ebij->abij", (n("Fae"), n("T2"))),
        (-1.0, "mi,abmj->abij", (n("Fmi"), n("T2"))),
        (1.0, "abed,edij->abij", (n("Wabef"), n("T2"))),
        (1.0, "mlij,abml->abij", (n("Wmnij"), n("T2"))),
        (1.0, "mled,aeim,dblj->abij", (n("Vmnef"), n("T2"), n("T2"))),
    ]
    shapes = {
        n("Fae"): (V, V),
        n("Fmi"): (O, O),
        n("T2"): (V, V, O, O),
        n("Wabef"): (V, V, V, V),
        n("Wmnij"): (O, O, O, O),
        n("Vmnef"): (O, O, V, V),
    }
    return Spec(f"ccsd(V={V},O={O})", text, shapes, n("R"), _einsum_reference(terms))


def fig1(V: int, O: int, tag: str = "") -> Spec:
    """The paper's Section-2 / Fig. 1 four-tensor contraction."""
    n = lambda base: base + tag  # noqa: E731
    text = f"""
    range V = {V};
    range O = {O};
    index a, b, c, d, e, f : V;
    index i, j, k, l : O;
    tensor {n('A')}(a, c, i, k); tensor {n('B')}(b, e, f, l);
    tensor {n('C')}(d, f, j, k); tensor {n('D')}(c, d, e, l);
    {n('S')}(a, b, i, j) = sum(c, d, e, f, k, l)
        {n('A')}(a,c,i,k) * {n('B')}(b,e,f,l) * {n('C')}(d,f,j,k) * {n('D')}(c,d,e,l);
    """
    terms: List[Term] = [
        (1.0, "acik,befl,dfjk,cdel->abij", (n("A"), n("B"), n("C"), n("D")))
    ]
    shapes = {
        n("A"): (V, V, O, O),
        n("B"): (V, V, V, O),
        n("C"): (V, V, O, O),
        n("D"): (V, V, V, O),
    }
    return Spec(f"fig1(V={V},O={O})", text, shapes, n("S"), _einsum_reference(terms))


def _squarings(n: int) -> int:
    """Squarings of a reflexive matrix that cover every simple path."""
    steps, reach = 0, 1
    while reach < max(n - 1, 1):
        reach *= 2
        steps += 1
    return max(steps, 1)


def _floyd_warshall(arrays: Arrays, name: str) -> np.ndarray:
    dist = np.array(arrays[name], dtype=np.float64)
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def apsp(n: int, semiring: str = "min_plus", tag: str = "") -> Spec:
    """All-pairs shortest paths by repeated squaring of ``W``.

    Under ``min_plus`` the reference is a vectorised Floyd-Warshall (a
    different algorithm, so path sums associate differently: agreement
    is to 1e-12, not bitwise).  Under ``plus_times`` -- the only algebra
    the HTTP wire can ask for -- the same text is a matrix power.
    """
    steps = _squarings(n)
    w = "W" + tag
    lines = [f"range N = {n};", "index i, j, k : N;", f"tensor {w}(i, j);"]
    prev = w
    for t in range(1, steps + 1):
        cur = ("D" if t == steps else f"S{t}") + tag
        lines.append(f"{cur}(i, j) = sum(k) {prev}(i, k) * {prev}(k, j);")
        prev = cur
    if semiring == "min_plus":
        reference = lambda arrays: _floyd_warshall(arrays, w)  # noqa: E731
    else:
        reference = lambda arrays: np.linalg.matrix_power(  # noqa: E731
            np.asarray(arrays[w]), 2 ** steps
        )
    return Spec(
        f"apsp(n={n},{semiring})", "\n".join(lines) + "\n", {w: (n, n)},
        "D" + tag, reference, semiring=semiring,
    )


def chain(dims: Sequence[int], tag: str = "") -> Spec:
    """A matrix chain ``M1 M2 ... Mk`` with ``Mt`` of shape dims[t-1] x dims[t]."""
    k = len(dims) - 1
    lines = []
    for t, extent in enumerate(dims):
        lines.append(f"range N{t} = {extent};")
        lines.append(f"index x{t} : N{t};")
    names = [f"M{t}{tag}" for t in range(1, k + 1)]
    for t, name in enumerate(names):
        lines.append(f"tensor {name}(x{t}, x{t + 1});")
    inner = ", ".join(f"x{t}" for t in range(1, k))
    product = " * ".join(f"{name}(x{t}, x{t + 1})" for t, name in enumerate(names))
    lines.append(f"P{tag}(x0, x{k}) = sum({inner}) {product};")
    letters = "abcdefgh"
    subscripts = ",".join(letters[t] + letters[t + 1] for t in range(k))
    subscripts += f"->{letters[0]}{letters[k]}"
    shapes = {name: (dims[t], dims[t + 1]) for t, name in enumerate(names)}
    return Spec(
        f"chain{tuple(dims)}", "\n".join(lines) + "\n", shapes, "P" + tag,
        _einsum_reference([(1.0, subscripts, tuple(names))]),
    )


def sparse_mm(n: int, fill: float, tag: str = "") -> Spec:
    """``C = A B`` with ``A`` declared ``sparse(fill)``."""
    a, b, c = "A" + tag, "B" + tag, "C" + tag
    text = (
        f"range N = {n};\nindex i, j, k : N;\n"
        f"tensor {a}(i, k) sparse({fill});\ntensor {b}(k, j);\n"
        f"{c}(i, j) = sum(k) {a}(i, k) * {b}(k, j);\n"
    )
    return Spec(
        f"sparse_mm(n={n},fill={fill})", text, {a: (n, n), b: (n, n)}, c,
        _einsum_reference([(1.0, "ik,kj->ij", (a, b))]), fills={a: fill},
    )


def make_inputs(spec: Spec, seed: int) -> Dict[str, np.ndarray]:
    """Seeded inputs: the same seed gives the same arrays."""
    arrays: Dict[str, np.ndarray] = {}
    for k, (name, shape) in enumerate(spec.shapes.items()):
        rng = np.random.default_rng([seed, k])
        if spec.semiring == "min_plus":
            # a directed weight matrix: absent edges are the annihilator
            # (inf), the diagonal the identity (a zero-length path)
            weights = 1.0 + 9.0 * rng.random(shape)
            present = rng.random(shape) < 0.4
            array = np.where(present, weights, np.inf)
            np.fill_diagonal(array, 0.0)
        else:
            array = 0.5 + rng.random(shape)
            fill = spec.fills.get(name)
            if fill is not None:
                array = np.where(rng.random(shape) < fill, array, 0.0)
        arrays[name] = array
    return arrays


def matches(spec: Spec, got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=spec.rtol, atol=0.0)
    )


#: templates of the eight specs ``serve_mix`` primes; the service runs
#: executions on the loop interpreter, so extents stay small enough that
#: per-request overhead, not arithmetic, decides the latency
SERVED: Tuple[Callable[[str], Spec], ...] = (
    lambda tag: chain((6, 6, 6, 6), tag),
    lambda tag: chain((8, 8, 8, 8), tag),
    lambda tag: chain((6, 6, 6, 6, 6), tag),
    lambda tag: chain((4, 8, 4, 8), tag),
    lambda tag: fig1(3, 2, tag),
    lambda tag: ccsd(3, 2, tag),
    lambda tag: apsp(6, "plus_times", tag),
    lambda tag: sparse_mm(16, 0.1, tag),
)
