"""The five workloads: seeded inputs, the timed op, and the reference check.

A cycle is a fixed sequence of op slots (the stated input mix); the seed
chooses what fills each slot.  Cycle i is made when the runner first asks
for it, from a stream seeded by (seed, workload, i).  The runner times
whole cycles, so every run measures the same mix.

`execute` is the only code inside the timed region.  `check` compares
its output with an answer from reference.py (or, for the CLI, with the
library run in-process) and returns None or the name of a failure class.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

import gen
import reference as ref

# Failure classes that the unchanged program is known to produce.  They
# count as failed ops; `correct` in the result stays true only while every
# failure belongs to one of these classes.
KNOWN_DEFECTS = {
    "norm_accuracy_nonfinite": "NormReport.accuracy is nan at resolution >= 20000 "
    "(refinement spacing collapses to 0, ROADMAP item 3)",
    "cli_flag_rejected": "--N/--window accepted by argparse but rejected with exit 1 "
    "on subcommands that ignore them (ROADMAP item 5a)",
    "norm_bound_false": "the closed-form 2x2 norm loses about half the digits when the two "
    "singular values are close (errors near 1e-8), while NormReport.accuracy claims less, "
    "down to 0 when the derivative bound vanishes (ROADMAP aim 3)",
}

TOL = 1e-9


def _rng(seed: int, name: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, name)), *more])


def map_pool(rng: np.random.Generator, poles: int) -> tuple[list, list]:
    """The shared pool: the two affine maps and `poles` seeded finite-pole maps."""
    return gen.affine_maps(), [gen.pole_map(rng) for _ in range(poles)]


class Op:
    """One unit of work; `inputs` holds everything the program receives."""

    __slots__ = ("kind", "mapspec", "inputs", "extra")

    def __init__(self, kind, mapspec, inputs, extra=None):
        self.kind = kind
        self.mapspec = mapspec
        self.inputs = inputs
        self.extra = extra or {}

    def label(self) -> str:
        return f"{self.kind}/{self.mapspec.family}"

    def describe(self) -> str:
        """Canonical text of the op, used to compare inputs across runs."""
        return repr((self.kind, self.mapspec.coeffs, self.inputs))


def _tc_map(tc, m: gen.MapSpec):
    return tc.MoebiusMap(*m.coeffs)


def _raw(element):
    def half(hp):
        return (np.array(hp.p), np.array(hp.q))

    return (
        tuple(element.w.items()),
        half(element.f),
        half(element.g),
        half(element.h),
        half(element.k),
    )


def _agree(got, want, scale) -> bool:
    return bool(np.all(np.isfinite(got))) and float(np.max(np.abs(got - want))) <= TOL * scale


def _check_contact(cls, m: gen.MapSpec):
    c = cls.contact
    if c is None or abs(c.zeta - m.zeta) > 1e-8 or abs(c.eta - m.eta) > 1e-8:
        return "classify_mismatch"
    if abs(c.s - m.s) > 1e-8 * m.s:
        return "classify_mismatch"
    return None


class Workload:
    name = ""
    check_every = 1  # full reference check on every n-th op; coprime to the cycle length
    check_after = False  # keep outputs and check them after the loop

    def __init__(self, tc, seed: int):
        self.tc = tc
        self.seed = seed
        self._current = (-1, None)

    def cycle(self, i: int) -> list:
        """Cycle i, made on first use from its own seeded stream, so no input repeats."""
        if self._current[0] != i:
            self._current = (i, self.make_cycle(i, _rng(self.seed, self.name, i)))
        return self._current[1]

    def make_cycle(self, i: int, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def warm_up(self):
        for op in self.cycle(0):
            self.execute(op)

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out, full=True):
        """None, or the failure class.  With full=False only the cheap checks run."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# algebra: exact arithmetic (rewriter, rings, SymbolElement products)


def _random_ring_raw(rng):
    """AC11-style generator-ring element: f, g polynomial, h, k pure sqrt(t)."""

    def cx(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5

    w = tuple(zip(range(-2, 3), cx(5)))
    return (
        w,
        (np.concatenate([[0], cx(3)]), np.zeros(0, complex)),
        (np.concatenate([[0], cx(3)]), np.zeros(0, complex)),
        (np.zeros(0, complex), cx(3)),
        (np.zeros(0, complex), cx(3)),
    )


def _random_quintuple_raw(rng):
    """AC8-style element with both parts in every slot."""

    def cx(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5

    w = tuple(zip(range(-2, 3), cx(5)))
    return (w,) + tuple((np.concatenate([[0], cx(2)]), cx(2)) for _ in range(4))


class Algebra(Workload):
    """Each op classifies its map, then does one of three exact computations."""

    name = "algebra"
    check_every = 9
    # One cycle: 8 quintuple products, 4 word sums, 2 round trips; every
    # kind half on affine and half on pole maps.  The products are the
    # cheapest ops and the majority, so p50 falls inside their block; the
    # round trips and the longest sums make up the top tenth.
    KINDS = ("quintuple",) * 8 + ("words",) * 4 + ("roundtrip",) * 2

    def __init__(self, tc, seed):
        rng = _rng(seed, "maps")
        self.affine, self.poles = map_pool(rng, 8)
        super().__init__(tc, seed)
        self.tcmaps = {m: _tc_map(tc, m) for m in self.affine + self.poles}
        self.roundtrip_exact = 0
        self.roundtrip_attempts = 0

    def make_cycle(self, i, rng):
        ops = []
        for j, kind in enumerate(self.KINDS):
            m = self.affine[(i + j // 2) % 2] if j % 2 == 0 else self.poles[(3 * i + j) % len(self.poles)]
            key = {"key": (i, j)}
            if kind == "words":
                # Stratified sizes: over 48 cycles every (word count, length)
                # pair occurs equally often, so the seed does not move the mix.
                q = j - 8
                lengths = [1 + (5 * i + 7 * q + 11 * k) % 16 for k in range(1 + (i + q) % 3)]
                expr = tuple(gen.word(rng, n) for n in lengths)
                ops.append(Op(kind, m, gen.render(expr), dict(key, expr=expr)))
            elif kind == "roundtrip":
                ops.append(Op(kind, m, _random_ring_raw(rng), key))
            else:
                ops.append(Op(kind, m, (_random_quintuple_raw(rng), _random_quintuple_raw(rng)), key))
        return ops

    def _element(self, raw, contact):
        tc = self.tc
        w, *halves = raw
        return tc.SymbolElement(
            tc.TrigPolynomial(dict(w)), *(tc.HalfPolynomial(p, q) for p, q in halves), contact
        )

    def execute(self, op):
        tc = self.tc
        cls = tc.moebius.classify(self.tcmaps[op.mapspec])
        contact = cls.contact
        if op.kind == "words":
            return cls, tc.rewriter.normalize(tc.rewriter.parse(op.inputs), contact)
        if op.kind == "roundtrip":
            b = self._element(op.inputs, contact)
            text = tc.rewriter.to_composition_sum(b)
            return cls, (b, tc.rewriter.normalize(tc.rewriter.parse(text), contact))
        b1 = self._element(op.inputs[0], contact)
        b2 = self._element(op.inputs[1], contact)
        return cls, (b1 * b2, b1.adjoint())

    def check(self, op, out, full=True):
        cls, result = out
        bad = _check_contact(cls, op.mapspec)
        if op.kind == "roundtrip":
            self.roundtrip_attempts += 1
            self.roundtrip_exact += int(result[1].equals_exact(result[0]))
        if bad or not full:
            return bad
        m = op.mapspec
        for pt in ref.sample_points(np.random.default_rng([self.seed, *op.extra["key"]]), m):
            if op.kind == "words":
                expr = op.extra["expr"]
                got = ref.quintuple_at(_raw(result), m, pt)
                if not _agree(got, ref.expr_at(expr, m, pt), ref.expr_scale(expr, m, pt)):
                    return "symbol_mismatch"
            elif op.kind == "roundtrip":
                want = ref.quintuple_at(op.inputs, m, pt)
                got = ref.quintuple_at(_raw(result[1]), m, pt)
                if not _agree(got, want, ref.quintuple_scale(op.inputs, m, pt)):
                    return "roundtrip_mismatch"
            else:
                prod, adj = result
                a = ref.quintuple_at(op.inputs[0], m, pt)
                b = ref.quintuple_at(op.inputs[1], m, pt)
                scale = (1 + np.linalg.norm(a, 2)) * (1 + np.linalg.norm(b, 2))
                if not _agree(ref.quintuple_at(_raw(prod), m, pt), a @ b, scale):
                    return "product_mismatch"
                if not _agree(ref.quintuple_at(_raw(adj), m, pt), a.conj().T, scale):
                    return "adjoint_mismatch"
        return None


# ---------------------------------------------------------------------------
# sweeps: the symbol as an evaluator (essential spectrum, norm, Fredholm)


def short_expr(rng, factors: int = 4):
    """A sum of words with at most `factors` factors in total, often plus a scalar."""
    words = []
    left = factors
    while left > 0:
        n = int(rng.integers(1, left + 1))
        words.append(gen.word(rng, n, toeplitz_share=0.4))
        left -= n
        if rng.random() < 0.5:
            break
    if rng.random() < 0.6:
        words.append(gen.identity_word(complex(rng.choice([-2.0, 1.5, 2.0, 3.0]), 0.0)))
    return tuple(words)


class Sweeps(Workload):
    """Each op classifies its map, normalizes a short expression, then sweeps its symbol."""

    name = "sweeps"
    check_every = 5
    # One cycle of 12 ops: each kind at resolution 1000 and 50000, and at
    # 10000 two Fredholm tests, three norms and one spectrum.  Sorted by
    # cost this puts p50 inside the norm-at-10000 block and p90 inside the
    # norm/Fredholm-at-50000 block, so neither sits on a boundary between
    # op classes of different cost.
    SLOTS = (
        (1000, "spectrum"), (1000, "norm"), (1000, "fredholm"),
        (10000, "fredholm"), (10000, "fredholm"), (10000, "norm"), (10000, "norm"),
        (10000, "norm"), (10000, "spectrum"),
        (50000, "norm"), (50000, "fredholm"), (50000, "spectrum"),
    )

    def __init__(self, tc, seed):
        rng = _rng(seed, "maps")
        self.affine, self.poles = map_pool(rng, 8)
        super().__init__(tc, seed)
        self.tcmaps = {m: _tc_map(tc, m) for m in self.affine + self.poles}

    def make_cycle(self, i, rng):
        ops = []
        for j, (res, kind) in enumerate(self.SLOTS):
            # Each cycle moves every slot on to the next map of its family,
            # whatever the number of slots.
            k = i + j // 2
            m = self.affine[k % 2] if (i + j) % 2 == 0 else self.poles[k % len(self.poles)]
            expr = short_expr(rng)
            ops.append(Op(kind, m, (gen.render(expr), res), {"expr": expr}))
        return ops

    def warm_up(self):
        for op in self.cycle(0):
            if op.inputs[1] == 1000:
                self.execute(op)

    def execute(self, op):
        tc = self.tc
        text, res = op.inputs
        cls = tc.moebius.classify(self.tcmaps[op.mapspec])
        element = tc.rewriter.normalize(tc.rewriter.parse(text), cls.contact)
        if op.kind == "spectrum":
            return cls, tc.symbol.essential_spectrum(element, res)
        if op.kind == "norm":
            return cls, tc.symbol.essential_norm_report(element, res)
        return cls, tc.symbol.is_fredholm(element, res)

    def check(self, op, out, full=True):
        cls, out = out
        expr, m = op.extra["expr"], op.mapspec
        res = op.inputs[1]
        bad = _check_contact(cls, m)
        if bad:
            return bad
        if op.kind == "norm":
            if not full:
                return None if math.isfinite(out.accuracy) else "norm_accuracy_nonfinite"
            want = ref.essential_sup(expr, m)
            if not abs(out.value - want) <= 1e-6 * (1 + want):
                return "norm_value_mismatch"
            if not math.isfinite(out.accuracy):
                return "norm_accuracy_nonfinite"
            if abs(out.value - want) > out.accuracy + TOL * (1 + want):
                return "norm_bound_false"
            return None
        if op.kind == "fredholm":
            if not isinstance(out, bool):
                return "fredholm_type"
            if not full:
                return None
            margin = ref.fredholm_margin(expr, m)
            if (margin > 1e-6 and not out) or (margin < 1e-10 and out):
                return "fredholm_mismatch"
            return None
        if len(out) != 3 * res + 2 or not np.all(np.isfinite(out)):
            return "spectrum_shape"
        if not full:
            return None
        rng = np.random.default_rng(res)
        wvals, eigs = ref.spectrum_curves(expr, m, 4001)
        dense = np.concatenate([wvals, eigs.ravel()])
        scale = 1 + float(np.max(np.abs(dense)))
        sample = out[rng.integers(0, len(out), 16)]
        if np.max(ref.nearest_distance(sample, dense)) > ref.curve_gap(wvals, eigs) + TOL * scale:
            return "spectrum_membership"
        # A grid of `res` points leaves no curve point farther than its own
        # largest step; at res above 4001 the 4001-point step bounds that.
        coarse = ref.spectrum_curves(expr, m, min(res, 4001))
        probe = dense[rng.integers(0, len(dense), 16)]
        if np.max(ref.nearest_distance(probe, out)) > 1.5 * ref.curve_gap(*coarse) + TOL * scale:
            return "spectrum_coverage"
        return None


class Spectra(Sweeps):
    """Sweeps without the norm ops: essential spectra and Fredholm tests only.

    Every op of `sweeps` that the unchanged program gets wrong is a norm,
    so this is the sweep workload on which no op is expected to fail.  The
    norm defects stay measured, and counted as failures, by `sweeps`.
    """

    name = "spectra"
    # One cycle of 16 ops.  Sorted by cost this puts p50 inside the
    # Fredholm-at-10000 block (ranks 4-9) and p90 inside the
    # Fredholm-at-50000 block (ranks 12-14).
    SLOTS = (
        (1000, "fredholm"), (1000, "fredholm"), (1000, "spectrum"), (1000, "spectrum"),
        (10000, "fredholm"), (10000, "fredholm"), (10000, "fredholm"),
        (10000, "fredholm"), (10000, "fredholm"), (10000, "fredholm"),
        (10000, "spectrum"), (10000, "spectrum"),
        (50000, "fredholm"), (50000, "fredholm"), (50000, "fredholm"), (50000, "spectrum"),
    )


# ---------------------------------------------------------------------------
# sections: finite-section oracle (series convolution, BLAS, LAPACK)

AC9 = {
    "toeplitz": ((1.0, (("T", ((1, 1.0),)), ("T", ((-1, 1.0), (2, 1.0))))), (-1.0, (("T", ((0, 1.0), (3, 1.0))),))),
    "commutator": ((1.0, (("T", ((1, 1.0),)), "C")), (-1.0, ("C", ("T", ((1, 1.0),))))),
}
AC10 = {
    "anti": ((1.0, ("C'", "C")), (1.0, ("C", "C'"))),
    "real_part": ((1.0, ("C",)), (1.0, ("C'",))),
    "self": ((1.0, ("C'", "C")), (-1.0, ("C", "C'"))),
}


def ac9_adjoint(m: gen.MapSpec):
    """C' - s*S, compact for every admissible map."""
    return ((1.0, ("C'",)), (-m.s, ("S",)))


class Sections(Workload):
    """Each op builds finite sections and reduces them (norms or eigenvalues)."""

    name = "sections"
    check_every = 1
    check_after = True

    # One cycle of the stated mix: (op kind, N, map, expression name).  "A"
    # alternates between the two affine maps, "P" takes the next seeded
    # finite-pole map.  The seven N=512 ops are a fifth of the ops and most
    # of the time: the AC10 eigenvalue fills (self- and anti-commutators
    # build C four times) and the AC9 adjoint and commutator sequences at
    # window 64, on the affine maps, plus a full finite-pole build.
    # AC9.adjoint runs at s=3: at s=2 the sigma build alone takes about
    # 3 s, which would leave fewer than 100 ops in a run.  With 37 ops,
    # sorted by cost, p90 falls in the middle of the block of the four
    # eigs-512 ops, all of similar cost, and p50 inside the eigs-128
    # real-part block, whose costs do not depend on the seed.  The pole
    # build costs 0.3 to 2.8 s, depending on the map, so it sorts above,
    # into or below the eigs-512 block; p90 stays inside it either way.
    SLOTS = (
        ("matrix", 512, "P", None),
        ("eigs", 512, "phi0", "self"),
        ("eigs", 512, "phi0", "anti"),
        ("eigs", 512, "phi1", "self"),
        ("eigs", 512, "phi1", "anti"),
        ("vanish", 512, "phi1", "adjoint"),
        ("vanish", 512, "phi0", "commutator"),
    ) + tuple(
        (kind, n, fam, name)
        for kind, n, name, reps in (
            ("vanish", 128, "toeplitz", 1),
            ("vanish", 256, "toeplitz", 1),
            ("matrix", 128, None, 3),
            ("vanish", 128, "adjoint", 2),
            ("vanish", 128, "commutator", 1),
            ("eigs", 128, "real_part", 3),
            ("eigs", 128, "self", 1),
            ("matrix", 256, None, 1),
            ("vanish", 256, "adjoint", 1),
            ("eigs", 256, "real_part", 1),
        )
        for _ in range(reps)
        for fam in ("A", "P")
    )

    def __init__(self, tc, seed):
        rng = _rng(seed, "maps")
        self.affine, poles = map_pool(rng, 16)
        # |c/d| sets the cost of a pole build: it decides how much of the
        # Taylor series, and of its powers, falls into the subnormal range
        # (at N=512 from about 0.3 s at |c/d| = 0.7 to 2.8 s near 0.47).
        # Cycle i starts at map 5i of the pool sorted by |c/d|, so the
        # N=512 pole builds of any five cycles spread over the whole range.
        self.poles = sorted(poles, key=lambda m: abs(m.coeffs[2] / m.coeffs[3]))
        super().__init__(tc, seed)
        self.tcmaps = {m: _tc_map(tc, m) for m in self.affine + self.poles}
        self._sections = {}

    def _expr(self, name, m):
        if name == "adjoint":
            return ac9_adjoint(m)
        return AC9.get(name) or AC10[name]

    def make_cycle(self, i, rng):
        ops = []
        for kind, n, family, name in self.SLOTS:
            if family == "P":
                k = sum(1 for op in ops if op.mapspec.family == "pole")
                m = self.poles[(5 * i + k) % len(self.poles)]
            elif family == "A":
                m = self.affine[(i + len(ops)) % 2]
            else:
                m = self.affine[int(family[-1])]
            if kind == "matrix":
                cols = np.unique(np.concatenate([[0, 1, n // 2, n - 1], rng.integers(0, n, 4)]))
                ops.append(Op(kind, m, n, {"cols": cols}))
                continue
            expr = self._expr(name, m)
            ops.append(Op(kind, m, (gen.render(expr), n), {"expr": expr, "name": name}))
        return ops

    def warm_up(self):
        m = self.tcmaps[self.affine[0]]
        self.tc.oracle.composition_matrix(m, 64)
        self.tc.oracle.vanishing_sequence("C' - 2*S", m, 64, 8)
        self.tc.oracle.compression_eigs("C + C'", m, 64)

    def execute(self, op):
        oracle = self.tc.oracle
        tm = self.tcmaps[op.mapspec]
        if op.kind == "matrix":
            return oracle.composition_matrix(tm, op.inputs)[:, op.extra["cols"]]
        text, n = op.inputs
        if op.kind == "vanish":
            return oracle.vanishing_sequence(text, tm, n, n // 8)
        return oracle.compression_eigs(text, tm, n)

    def _section(self, coeffs, n):
        """Reference sections, kept for the affine maps that every cycle reuses."""
        key = (coeffs, n)
        if key in self._sections:
            return self._sections[key]
        mat = ref.composition_matrix(coeffs, n)
        if any(coeffs in (m.coeffs, m.sigma_coeffs()) for m in self.affine):
            self._sections[key] = mat
        return mat

    def check(self, op, out, full=True):
        m = op.mapspec
        if not np.all(np.isfinite(out)):
            return "nonfinite_output"
        if not full:
            return None
        if op.kind == "matrix":
            want = ref.power_coefficients(m.coeffs, op.inputs, op.extra["cols"])
            return None if _agree(out, want, 10.0) else "column_mismatch"
        n = op.inputs[1]
        mat = ref.expr_matrix(op.extra["expr"], m, n, self._section)
        scale = 10.0 * (1 + float(np.max(np.abs(mat))))
        if op.kind == "vanish":
            want = np.linalg.norm(mat[:, : n // 8], axis=0)
            return None if _agree(out, want, scale) else "sequence_mismatch"
        want = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        return None if _agree(out, want, scale) else "eigs_mismatch"


# ---------------------------------------------------------------------------
# cli: one cold-started process per op


class Cli(Workload):
    """Each op is `python -m tcalgebra.cli <subcommand>` in a fresh process."""

    name = "cli"

    def __init__(self, tc, seed, root, workdir, importtime=False):
        rng = _rng(seed, "maps")
        affine, poles = map_pool(rng, 4)
        self.root = root
        self.workdir = workdir
        self.importtime = importtime
        self.maps = affine + poles + [gen.automorphism_map(rng), gen.contraction_map(rng)]
        self.paths = {}
        for i, m in enumerate(self.maps):
            path = os.path.join(workdir, f"map{i}.json")
            data = {k: [v.real, v.imag] for k, v in zip("abcd", m.coeffs)}
            with open(path, "w") as handle:
                json.dump(data, handle)
            self.paths[m] = path
        self.affine, self.poles = affine, poles
        self.rejected = self.maps[-2:]
        super().__init__(tc, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.out_path = os.path.join(workdir, "stdout.txt")
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.peak_rss_kb = 0
        self._expected = {}

    def make_cycle(self, i, rng):
        a = self.affine[i % 2]
        p1, p2 = self.poles[i % 2], self.poles[2 + i % 2]
        rej_a, rej_c = self.rejected

        def expr():
            return gen.render(short_expr(rng))

        argvs = [
            (a, ["analyze"]),
            (p1, ["analyze"]),
            (p2, ["analyze", "--N", "256", "--window", "32"]),
            (a, ["normalize", "--expr", expr()]),
            (p1, ["normalize", "--expr", expr()]),
            (a, ["spectrum", "--expr", expr(), "--resolution", "200"]),
            (p2, ["spectrum", "--expr", expr(), "--resolution", "500"]),
            (a, ["norm", "--expr", expr()]),
            (p1, ["norm", "--expr", expr(), "--resolution", "2000"]),
            (p2, ["norm", "--expr", expr(), "--N", "100"]),
            (rej_a, ["analyze"]),
            (rej_c, ["normalize", "--expr", "C*S"]),
        ]
        ops = []
        for m, argv in argvs:
            argv = [argv[0], "--map", os.path.relpath(self.paths[m], self.root)] + argv[1:]
            ops.append(Op(argv[0], m, tuple(argv)))
        return ops

    def warm_up(self):
        self.execute(self.cycle(0)[0])

    def execute(self, op):
        cmd = [sys.executable]
        if self.importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "tcalgebra.cli", *op.inputs]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def outputs(self):
        with open(self.out_path) as out, open(self.err_path) as err:
            return out.read(), err.read()

    def expected(self, op):
        """Exit code and stdout that the library gives in-process for this op."""
        key = op.inputs
        if key not in self._expected:
            self._expected[key] = self._library(op)
        return self._expected[key]

    def _library(self, op):
        tc = self.tc
        argv = dict(zip(op.inputs[1::2], op.inputs[2::2]))
        m = op.mapspec
        if m.family in ("automorphism", "contraction"):
            return 2, None
        tm = _tc_map(tc, m)
        contact = tc.moebius.classify(tm).contact
        if op.kind == "analyze":
            return 0, {"s": contact.s, "zeta": contact.zeta, "eta": contact.eta}
        element = tc.rewriter.normalize(tc.rewriter.parse(argv["--expr"]), contact)
        res = int(argv.get("--resolution", 1000))
        if op.kind == "normalize":
            return 0, element.to_json_dict()
        if op.kind == "spectrum":
            return 0, tc.symbol.spectrum_samples(element, res)
        return 0, tc.symbol.essential_norm_report(element, res).value

    def check(self, op, code, full=True):
        stdout, stderr = self.outputs()
        want_code, want = self.expected(op)
        if code != want_code:
            if code == 1 and "window must not exceed N/2" in stderr:
                return "cli_flag_rejected"
            return f"cli_exit_{code}_expected_{want_code}"
        if want is None:
            return None
        try:
            if op.kind == "analyze":
                got = json.loads(stdout)
                ok = (
                    got["s"] == want["s"]
                    and complex(*got["zeta"]) == want["zeta"]
                    and complex(*got["eta"]) == want["eta"]
                    and abs(got["s"] - op.mapspec.s) <= 1e-8 * op.mapspec.s
                )
            elif op.kind == "normalize":
                got = json.loads(stdout[stdout.index("{\n"):])["quintuple"]
                ok = got == json.loads(json.dumps(want))
            elif op.kind == "spectrum":
                rows = stdout.splitlines()[1:]
                ok = len(rows) == len(want) and all(
                    row == f"{z.real!r},{z.imag!r},{src}" for row, (z, src) in zip(rows, want)
                )
            else:
                ok = float(stdout.splitlines()[0]) == want
        except (ValueError, KeyError, IndexError):
            ok = False
        return None if ok else "cli_output_mismatch"

    def run_in_process(self, op):
        """The same argv through cli.main, for the traced run's cli.main span."""
        import contextlib
        import io

        sink = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.tc.cli.main(list(op.inputs))
        finally:
            os.chdir(cwd)


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of numpy and of the rest of tcalgebra's imports."""
    cumulative = {}
    order = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cum = int(parts[1]) * 1e-6
        except ValueError:
            continue
        raw = parts[2].rstrip()
        name = raw.strip()
        top = len(raw) - len(raw.lstrip()) <= 1
        cumulative[name] = cum
        order.append((name, cum, top))
    numpy_s = cumulative.get("numpy", 0.0)
    tops = [n for n, _, top in order if top]
    after = tops[tops.index("tcalgebra"):] if "tcalgebra" in tops else []
    rest = sum(cum for n, cum, top in order if top and n in after) - numpy_s
    return {"numpy": numpy_s, "tcalgebra": rest}


WORKLOADS = {
    "algebra": Algebra,
    "sweeps": Sweeps,
    "spectra": Spectra,
    "sections": Sections,
    "cli": Cli,
}
