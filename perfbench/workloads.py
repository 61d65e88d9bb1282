"""The three benchmark workloads as fixed job lists with output checks.

A job is one call into the library (or one CLI invocation).  `run()` returns
its output; `check(output, seen)` returns None when the output is right and a
message otherwise.  `seen` maps the names of jobs earlier in the same pass to
their outputs, for checks that compare two jobs (Poincare duality, basis
invariance).  Builders take (rng, pinned values, work directory); only
cli-batch writes files there.  Workloads call the library through module attributes
(`H.cohomology_dimensions`, `cli.main`), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from math import comb

import homlie as H
from homlie import cli

import inputs as I


class Job:
    def __init__(self, name, sizes, run, check):
        self.name = name
        self.sizes = sizes
        self.run = run
        self.check = check


def unknowns(d: int, vdim: int, degrees, compatible: bool) -> int:
    """Unknowns of the linear systems a job solves: the sum over the cochain
    degrees n it solves in of copies * vdim * C(d, n), where the two-bracket
    complex has n copies in degree n >= 1.  Jobs that only evaluate have 0."""
    return sum((n if compatible and n else 1) * vdim * comb(d, n) for n in degrees)


def sizes(struct, vdim, degree, flavor, degrees):
    return {
        "dim": struct.dim,
        "vdim": vdim,
        "degree": degree,
        "flavor": flavor,
        "unknowns": unknowns(struct.dim, vdim, degrees, flavor == "compatible"),
        "nonzeros": I.nonzero_count(struct),
    }


def _pinned(expected, name, observed):
    want = expected.get(name)
    if want is None:
        return f"no pinned value; observed {json.dumps(observed)}"
    if observed != want:
        return f"expected {want}, got {observed}"
    return None


# ---------------------------------------------------------- cohomology-ladder

def _betti(n: int, k: int) -> int:
    """Betti number b_k of h_(2n+1) with trivial coefficients, k <= n."""
    return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)


def cohomology_ladder(rng, expected, workdir):
    """Heisenberg h5 and h7 in the standard basis: trivial and adjoint
    coefficients, identity and Yau twists, plain and two-bracket flavors."""
    jobs = []
    h = {n: I.heisenberg(n, [rng.choice((-1, 1)) for _ in range(n)]) for n in (2, 3)}
    yau = {n: I.yau_twist(h[n], I.heisenberg_flip(n, rng)) for n in (2, 3)}
    values = [2, 3]
    rng.shuffle(values)
    pair_n = I.nijenhuis_pair(h[2], I.heisenberg_nijenhuis(2, 1, values, 1))
    pair_0 = I.zero_pair(h[2])

    def rung(label, struct, module, degree, extra_check=None):
        rep = I.trivial_module(struct) if module == "trivial" else H.adjoint_representation(struct)
        flavor = "compatible" if isinstance(struct, H.CompatibleHomLieAlgebra) else "plain"
        name = f"{label}/{module}/deg{degree}"

        def run():
            return H.cohomology_dimensions(struct, rep, degree)

        def check(report, seen):
            dims = [report.dim_cochains, report.dim_cocycles,
                    report.dim_coboundaries, report.dim_cohomology]
            return (extra_check(report, seen) if extra_check else None) or \
                _pinned(expected, name, dims)

        degrees = [k for k in (degree - 1, degree) if k >= 0]
        jobs.append(Job(name, sizes(struct, rep.vdim, degree, flavor, degrees), run, check))

    def betti_check(n, k):
        d = 2 * n + 1
        mirror = f"h{d}/trivial/deg{d - k}"

        def check(report, seen):
            if k <= n:
                want = _betti(n, k)
            elif mirror in seen:
                want = seen[mirror].dim_cohomology  # Poincare duality b_k = b_(d-k)
            else:
                return None
            if report.dim_cohomology != want:
                return f"b_{k} = {report.dim_cohomology}, expected {want}"
            return None
        return check

    for k in range(6):
        rung("h5", h[2], "trivial", k, betti_check(2, k))
    for k in range(3):
        rung("h7", h[3], "trivial", k, betti_check(3, k))
    for k in range(3):
        rung("h5", h[2], "adjoint", k)
    for k in range(3):
        rung("h5-yau", yau[2], "adjoint", k)
    for k in range(2):
        rung("h7", h[3], "adjoint", k)
    rung("h7-yau", yau[3], "adjoint", 1)
    for k in range(2):
        rung("h5-pair-zero", pair_0, "adjoint", k)
    for k in (1, 2):
        rung("h5-pair-zero", pair_0, "trivial", k)
    for k in (1, 2):
        rung("h5-pair-nijenhuis", pair_n, "trivial", k)
    for k in range(3):
        rung("h5-pair-nijenhuis", pair_n, "adjoint", k)

    adj = H.adjoint_representation(pair_n)
    name = "h5-pair-nijenhuis/adjoint/derivations"
    jobs.append(Job(
        name,
        sizes(pair_n, adj.vdim, 1, "compatible", [1]),
        lambda: H.derivation_space(pair_n, adj),
        lambda r, seen: _pinned(expected, name, [len(r.derivations), len(r.inner), r.outer_dim]),
    ))
    return jobs


# ---------------------------------------------------------- deformation-chain

def deformation_chain(rng, expected, workdir):
    """Compatible pairs ([,], [,]_N) on h3 and h5 after a dense unimodular
    base change; a second Nijenhuis operator gives a linear generator that
    is_extensible extends order by order."""
    jobs = []
    for n, top in ((1, 7), (2, 3)):
        d = 2 * n + 1
        change = I.BaseChange(d, d - 1, rng)
        pair = change.structure(
            I.nijenhuis_pair(I.heisenberg(n), I.heisenberg_nijenhuis(n, 1, range(2, n + 2), 1))
        )
        second = change.operator(I.heisenberg_nijenhuis(n, 2, range(3, n + 3), 2))
        generator = H.trivial_deformation_from_nijenhuis(pair, second)
        label = f"h{d}-dense"
        state = {}

        def gen_check(report, seen):
            return None if report.generates else "Nijenhuis generator fails the six conditions"

        jobs.append(Job(
            f"{label}/check_linear_generator",
            sizes(pair, d, 2, "compatible", []),
            lambda pair=pair, generator=generator: H.check_linear_generator(pair, generator),
            gen_check,
        ))
        if n == 1:
            name = f"{label}/infinitesimal_class"

            def class_check(coords, seen, name=name):
                if any(coords):
                    return f"trivial deformation has nonzero class {coords}"
                # len(coords) = dim H^2, pinned from the standard basis.
                return _pinned(expected, name, len(coords))

            jobs.append(Job(
                name,
                sizes(pair, d, 2, "compatible", [1, 2]),
                lambda pair=pair, generator=generator: H.infinitesimal_class(pair, generator),
                class_check,
            ))

        def start(pair=pair, generator=generator, state=state):
            state["d"] = H.OrderPDeformation.from_generator(pair, generator)
            return state["d"]

        for p in range(1, top):
            def obstruct(state=state, p=p, start=start):
                if p == 1:
                    start()
                return H.obstruction(state["d"])

            def ob_check(ob, seen, p=p):
                if p == 1 and not ob.cochain.is_zero():
                    return "order-2 obstruction of a Maurer-Cartan generator is nonzero"
                return None

            def extend(state=state):
                pair_top = H.is_extensible(state["d"])
                if pair_top is not None:
                    state["d"] = state["d"].extended(*pair_top)
                return pair_top

            def verify(state=state):
                return H.verify_order_p(state["d"])

            jobs.append(Job(f"{label}/order{p}/obstruction",
                            sizes(pair, d, 3, "compatible", []), obstruct, ob_check))
            jobs.append(Job(f"{label}/order{p}/is_extensible",
                            sizes(pair, d, 2, "compatible", [2]), extend,
                            lambda r, seen: None if r is not None else "not extensible"))
            jobs.append(Job(f"{label}/order{p + 1}/verify_order_p",
                            sizes(pair, d, 3, "compatible", []), verify,
                            lambda r, seen: None if r.passed else "extension fails verify_order_p"))
    return jobs


# ---------------------------------------------------------- cli-batch

# Output fields that depend on the basis or on which representative a solver
# picks; everything else in a machine report is basis invariant.
_VARIANT = {"inputs_digest", "witnesses", "class_coordinates", "extension_coefficients"}


def invariant(value):
    if isinstance(value, dict):
        return {k: (True if k == "error" else invariant(v))
                for k, v in value.items() if k not in _VARIANT}
    if isinstance(value, list):
        return [invariant(v) for v in value]
    return value


def _label(argv):
    return "-".join(a.lstrip("-") for a in argv)


def cli_batch(rng, expected, workdir):
    """A seeded corpus of documents run through cli.main in machine format."""
    jobs = []
    os.makedirs(workdir, exist_ok=True)
    for k, doc in enumerate(I.cli_corpus(rng)):
        path = os.path.join(workdir, f"doc{k:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc.text)
        for argv, want in doc.commands:
            name = f"{doc.name}/{_label(argv)}"
            full = [argv[0], path, *argv[1:], "--format", "machine"]
            flavor = "compatible" if isinstance(doc.struct, H.CompatibleHomLieAlgebra) else "plain"
            degree = int(argv[2]) if argv[0] == "cohomology" else None
            degrees = {
                "cohomology": [k for k in (degree - 1, degree) if k >= 0] if degree is not None else [],
                "derivations": [1],
                "deform-obstruct": [2],
                "extension-classify": [1, 2],
            }.get(argv[0], [])
            twin = f"{doc.twin.name}/{_label(argv)}" if doc.twin else None

            def run(full=full):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = cli.main(full)
                return status, out.getvalue()

            def check(result, seen, want=want, name=name, twin=twin):
                status, stdout = result
                if status != want:
                    return f"exit {status}, expected {want}"
                if twin is None:
                    digest = "sha256:" + hashlib.sha256(stdout.encode()).hexdigest()
                    return _pinned(expected, name, digest)
                if twin not in seen:
                    return f"twin {twin} did not run"
                mine = invariant(json.loads(stdout))
                theirs = invariant(json.loads(seen[twin][1]))
                if mine != theirs:
                    return "basis-invariant fields differ from the standard-basis twin"
                return None

            jobs.append(Job(name, sizes(doc.struct, doc.vdim, degree, flavor, degrees), run, check))
    return jobs


WORKLOADS = {
    "cohomology-ladder": cohomology_ladder,
    "deformation-chain": deformation_chain,
    "cli-batch": cli_batch,
}
