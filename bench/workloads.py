"""Workloads of the tableaux benchmark: seeded inputs, one batch of queries, checks.

Each workload builds its inputs from the seed once (set-up) and then runs
the same batch of queries as often as the run asks. A batch returns the
latency of every query, the number of queries that failed (raised, exited
nonzero or failed their second-route check) and a dict of work counts that
must repeat exactly for every batch of one seed.

Library calls go through module attributes at call time
(``tableaux.lr_coefficient``, ``tableaux.cli.main``), so a traced run sees
them. The second routes the checks use are computed here, independently of
the library, unless a check is named after a library function.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time
import traceback
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

import tableaux
import tableaux.cli

SCHUR_POLYNOMIAL = tableaux.schur.schur_polynomial  # the cached original, kept for cache_info
clock = time.perf_counter
LOCAL_REFERENCE_RUNS = 5


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the library: int-keyed dict, list indexing.

    It allocates no object the cyclic garbage collector tracks (bar one
    list), so running it does not move the collections of the workload it
    is interleaved with.
    """
    acc: dict[int, int] = {}
    seq = list(range(50))
    for i in range(3000):
        key = seq[i % 50] * 31 % 211
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


def time_reference_loop() -> float:
    t0 = clock()
    reference_loop()
    return clock() - t0


@dataclass
class Batch:
    """What one batch measured: query latencies, failures, work counts, host speed.

    With ``pace_s`` set, the reference loop runs after a query once
    ``pace_s`` seconds have passed since it last ran, up to 8 times after a
    longer stretch. Each latency is paired with the median of the loop's
    last ``LOCAL_REFERENCE_RUNS`` times right after it, and each run of the
    loop is weighted by its share of the stretch, so ``reference_mean_s`` is
    the loop's time averaged over the batch's wall time.
    """

    pace_s: float | None = None
    latencies: array = field(default_factory=lambda: array("d"))  # seconds, one per query
    latency_refs: array = field(default_factory=lambda: array("d"))  # reference time after each query
    failed: int = 0
    work: dict = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)
    reference_w: list[float] = field(default_factory=list)
    _last: float = field(default_factory=clock)

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        if self.pace_s is not None and clock() - self._last >= self.pace_s:
            self.time_reference()

    def time_reference(self) -> None:
        stretch = clock() - self._last
        runs = max(1, min(8, int(stretch / self.pace_s)))
        times = [time_reference_loop() for _ in range(runs)]
        self.reference_s += times
        self.reference_w += [stretch / runs] * runs
        local = statistics.median(self.reference_s[-LOCAL_REFERENCE_RUNS:])
        self.latency_refs.extend([local] * (len(self.latencies) - len(self.latency_refs)))
        self._last = clock()

    def reference_mean_s(self) -> float:
        return sum(r * w for r, w in zip(self.reference_s, self.reference_w)) / sum(self.reference_w)


def _failed(what: str) -> None:
    print(f"FAILED {what}"[:300], file=sys.stderr)


def _cache_counts(work: dict) -> dict:
    info = SCHUR_POLYNOMIAL.cache_info()
    work["schur_cache_hits"] = info.hits
    work["schur_cache_misses"] = info.misses
    return work


# -- combinatorics the checks use, independent of the library --------------


def partitions(n: int, max_part: int | None = None, max_rows: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of ``n`` inside a max_rows x max_part box, reverse-lexicographic."""
    out: list[tuple[int, ...]] = []

    def grow(rest: int, cap: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(acc))
            return
        if max_rows is not None and len(acc) == max_rows:
            return
        for p in range(min(cap, rest), 0, -1):
            acc.append(p)
            grow(rest - p, p, acc)
            acc.pop()

    grow(n, n if max_part is None else max_part, [])
    return out


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(q <= p for p, q in zip(outer, inner))


def hooks(shape: tuple[int, ...]) -> list[int]:
    cols = [sum(1 for p in shape if p > c) for c in range(shape[0])] if shape else []
    return [(p - c) + (cols[c] - r - 1) for r, p in enumerate(shape) for c in range(p)]


def syt_count(shape: tuple[int, ...]) -> int:
    """Standard tableaux of a shape: n! over the product of hook lengths."""
    return factorial(sum(shape)) // prod(hooks(shape))


def ssyt_count(shape: tuple[int, ...], bound: int) -> int:
    """s_shape(1^bound) by the hook-content formula."""
    contents = [bound + c - r for r, p in enumerate(shape) for c in range(p)]
    return prod(contents) // prod(hooks(shape)) if all(contents) else 0


def skew_ssyt_count(outer: tuple[int, ...], inner: tuple[int, ...], bound: int) -> int:
    """s_{outer/inner}(1^bound) by the Jacobi-Trudi determinant of h_k(1^bound)."""
    size = len(outer)
    inner = inner + (0,) * (size - len(inner))

    def h(k: int) -> int:
        return comb(bound + k - 1, k) if k >= 0 else 0

    m = [[Fraction(h(outer[i] - inner[j] - i + j)) for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return int(det)


def is_ssyt(rows: list[list[int]], inner: tuple[int, ...], bound: int) -> bool:
    """Semistandard skew filling: rows weak, columns strict, entries in 1..bound."""
    grid = {}
    for r, row in enumerate(rows):
        off = inner[r] if r < len(inner) else 0
        for j, v in enumerate(row):
            grid[(r, off + j)] = v
    for (r, c), v in grid.items():
        if not 1 <= v <= bound:
            return False
        if (r, c - 1) in grid and grid[(r, c - 1)] > v:
            return False
        if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
            return False
    return True


def is_lattice(word: list[int]) -> bool:
    seen = [0] * (max(word, default=0) + 2)
    for v in word:
        seen[v] += 1
        if v > 1 and seen[v] > seen[v - 1]:
            return False
    return True


def random_ssyt(shape: tuple[int, ...], rng: random.Random) -> list[list[int]]:
    """A semistandard filling: entry r + 1 + d[r][c], d weakly growing right and down."""
    d: list[list[int]] = []
    for r, p in enumerate(shape):
        row: list[int] = []
        for c in range(p):
            base = max(row[c - 1] if c else 0, d[r - 1][c] if r else 0)
            row.append(base + rng.choice((0, 0, 1)))
        d.append(row)
    return [[r + 1 + v for v in row] for r, row in enumerate(d)]


def lis(seq: list[int]) -> int:
    """Longest increasing subsequence, by patience sorting."""
    tops: list[int] = []
    for v in seq:
        i = bisect_left(tops, v)
        tops[i:i + 1] = [v]
    return len(tops)


def fmt_shape(shape: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, shape)) + "]"


def fmt_rows(rows) -> str:
    return "/".join(",".join(map(str, row)) for row in rows)


def fmt_perm(perm: list[int]) -> str:
    return ("" if len(perm) <= 9 else ",").join(map(str, perm))


def parse_perm(text: str) -> list[int]:
    text = text.strip()
    return [int(v) for v in text.split(",")] if "," in text else [int(ch) for ch in text]


def blocks(text: str) -> list[str]:
    body = text.strip("\n")
    return body.split("\n\n") if body else []


def parse_grid(lines: list[str]) -> list[list[int]]:
    """Rows of a rendered filling; inner boxes (``.``) are dropped."""
    return [[int(v) for v in line.split() if v != "."] for line in lines]


# -- oracle -----------------------------------------------------------------


class Oracle:
    """Every pair with |lambda| + |mu| = 7 at width 7: expansion against the rule.

    The inputs are the whole degree-7 set in the order of
    scripts/lr_oracle_sweep.py, whatever the seed: the order decides which
    queries pay the schur_polynomial cache misses, and a seeded shuffle
    moved query_p50_ms between 11.9 and 16.3 ms from seed to seed.
    """

    DEGREE = 7

    def __init__(self, seed: int):
        by_size = {a: [tableaux.Partition(p) for p in partitions(a)] for a in range(self.DEGREE + 1)}
        self.pairs = [(lam, mu) for a in range(self.DEGREE + 1) for lam in by_size[a]
                      for mu in by_size[self.DEGREE - a]]
        self.nus = by_size[self.DEGREE]

    def run_batch(self, pace_s: float | None = None) -> Batch:
        batch = Batch(pace_s)
        nonzero = total = 0
        nu_set = set(self.nus)
        for lam, mu in self.pairs:
            t0 = clock()
            try:
                product = (tableaux.schur_polynomial(lam, self.DEGREE)
                           * tableaux.schur_polynomial(mu, self.DEGREE))
                expansion = tableaux.schur_expand(product)
                ok = set(expansion) <= nu_set
                for nu in self.nus:
                    coeff = tableaux.lr_coefficient(lam, mu, nu)
                    ok = ok and coeff == expansion.get(nu, 0)
                    nonzero += coeff > 0
                    total += coeff
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            batch.record(clock() - t0)
            if not ok:
                _failed(f"oracle {lam} * {mu}")
                batch.failed += 1
        batch.work = _cache_counts({"queries": len(self.pairs), "nonzero": nonzero, "coeff_sum": total})
        return batch


# -- lr_table ---------------------------------------------------------------


class LrTable:
    """Whole coefficient tables c^nu_{lambda mu} for pairs of 12-16 boxes in a 6x6 box.

    The pairs are a fixed sample (``POOL_SEED``); the run's seed orders them.
    A fresh sample per seed made the batch cost vary 2.2-5.3 s between
    seeds for 8 pairs, because one pair's cost ranges over 0.05-2.4 s, so
    no bound the benchmark may set would hold run_s across seeds.
    """

    POOL_SEED = 0
    POOL_PAIRS = 8
    SIZES = (12, 16)
    BOX = 6

    def __init__(self, seed: int):
        shapes = {n: partitions(n, self.BOX, self.BOX) for n in range(self.SIZES[0], self.SIZES[1] + 1)}
        design = random.Random(self.POOL_SEED)
        self.pairs = []
        for _ in range(self.POOL_PAIRS):
            a, b = design.randint(*self.SIZES), design.randint(*self.SIZES)
            pair = design.choice(shapes[a]), design.choice(shapes[b])
            self.pairs.append(tuple(tableaux.Partition(p) for p in pair))
        random.Random(seed).shuffle(self.pairs)

    def run_batch(self, pace_s: float | None = None) -> Batch:
        batch = Batch(pace_s)
        nonzero = witnesses = 0
        for lam, mu in self.pairs:
            n = lam.size + mu.size
            first = len(batch.latencies)
            try:
                lhs = 0
                for nu in tableaux.partitions_of(n):
                    if not (nu.contains(lam) and nu.contains(mu)):
                        continue
                    t0 = clock()
                    coeff = tableaux.lr_coefficient(lam, mu, nu)
                    batch.record(clock() - t0)
                    if coeff:
                        nonzero += 1
                        witnesses += coeff
                        lhs += coeff * tableaux.count_standard_tableaux(nu)
                # sum_nu c^nu f^nu = C(n, |lambda|) f^lambda f^mu
                rhs = (comb(n, lam.size) * tableaux.count_standard_tableaux(lam)
                       * tableaux.count_standard_tableaux(mu))
                ok = lhs == rhs
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                _failed(f"lr_table {lam} * {mu}")
                batch.failed += max(1, len(batch.latencies) - first)
        batch.work = _cache_counts({
            "queries": len(batch.latencies), "nonzero": nonzero, "witnesses": witnesses,
        })
        return batch


# -- cli --------------------------------------------------------------------


class CallFailed(Exception):
    pass


class CliPass:
    """One pass of the script: in-process ``tableaux.cli.main`` calls, stdout captured."""

    def __init__(self, pace_s: float | None):
        self.batch = Batch(pace_s)
        self.digest = hashlib.sha256()
        self.stdout_bytes = 0
        self.nonzero_exits = 0

    def call(self, *argv: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tableaux.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        self.batch.record(clock() - t0)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        self.digest.update("\0".join([*argv, str(code), text]).encode())
        if code != 0:
            self.nonzero_exits += 1
            raise CallFailed(f"exit {code}: {' '.join(argv)[:200]}\n{err.getvalue()}")
        return text

    def json(self, *argv: str):
        return json.loads(self.call(*argv, "--json"))


def case_syt(run: CliPass, shape) -> bool:
    s = fmt_shape(shape)
    count = int(run.call("count-syt", s))
    listed = run.json("list-syt", s)["result"]
    return (count == run.json("count-syt", s)["result"] == len(listed)
            == len(blocks(run.call("list-syt", s))) == syt_count(shape))


def case_ssyt(run: CliPass, shape, bound: int, inner=()) -> bool:
    args = ["list-ssyt", fmt_shape(shape), str(bound)] + (["--inner", fmt_shape(inner)] if inner else [])
    listed = run.json(*args)["result"]
    want = skew_ssyt_count(shape, inner, bound) if inner else ssyt_count(shape, bound)
    return (len(listed) == len(blocks(run.call(*args))) == want
            and all(is_ssyt(f["rows"], inner, bound) for f in listed))


def case_schur(run: CliPass, shape, bound: int) -> bool:
    s, b = fmt_shape(shape), str(bound)
    text_sum = sum(int(term.split(" * ")[0]) for term in run.call("schur", s, b).strip().split(" + "))
    json_sum = sum(t["coefficient"] for t in run.json("schur", s, b)["result"]["terms"])
    listed = run.json("schur", s, b, "--list")["result"]
    return (text_sum == json_sum == len(listed) == len(blocks(run.call("schur", s, b, "--list")))
            == ssyt_count(shape, bound))


def _is_witness(rows, lam, mu) -> bool:
    word = [v for row in rows for v in reversed(row)]
    content = [word.count(i + 1) for i in range(len(mu))]
    return is_ssyt(rows, lam, len(mu)) and content == list(mu) and is_lattice(word)


def case_lr(run: CliPass, lam, mu, nu) -> bool:
    args = [fmt_shape(lam), fmt_shape(mu), fmt_shape(nu)]
    head, *found = blocks(run.call("lr", *args, "--witnesses"))
    data = run.json("lr", *args, "--witnesses")
    swapped = int(run.call("lr", args[1], args[0], args[2]))  # c^nu_{lambda mu} = c^nu_{mu lambda}
    return (int(head) == len(found) == data["result"] == len(data["witnesses"]) == swapped
            and all(_is_witness(w["rows"], lam, mu) for w in data["witnesses"]))


def case_verify(run: CliPass, lam, mu, nu) -> bool:
    args = [fmt_shape(lam), fmt_shape(mu), fmt_shape(nu)]
    coeff, mark = run.call("lr", *args, "--verify").split()
    data = run.json("lr", *args, "--verify")
    return mark == "(verified)" and data["verified"] is True and data["result"] == int(coeff)


def case_expand(run: CliPass, lam, mu) -> bool:
    a, b = fmt_shape(lam), fmt_shape(mu)
    items = [(tuple(t["partition"]), t["coefficient"]) for t in run.json("expand", a, b)["result"]]
    text = [line.split(": ") for line in run.call("expand", a, b).splitlines()]
    n = sum(lam) + sum(mu)
    return ([(fmt_shape(nu), str(c)) for nu, c in items] == [tuple(t) for t in text]
            and sum(c * syt_count(nu) for nu, c in items)
            == comb(n, sum(lam)) * syt_count(lam) * syt_count(mu))


def case_rsk(run: CliPass, perm: list[int], as_json: bool) -> bool:
    p = fmt_perm(perm)
    if as_json:
        pair = run.json("rsk", p)["result"]
        t_rows, u_rows = pair["insertion"]["rows"], pair["recording"]["rows"]
    else:
        lines = run.call("rsk", p).splitlines()
        split = lines.index("U:")
        t_rows, u_rows = parse_grid(lines[1:split]), parse_grid(lines[split + 1:])
    back = parse_perm(run.call("rsk", "--invert", fmt_rows(t_rows), fmt_rows(u_rows)))
    return back == perm and len(t_rows[0]) == tableaux.lis_length(perm)


def case_trace(run: CliPass, perm: list[int]) -> bool:
    p = fmt_perm(perm)
    data = run.json("rsk", p, "--trace")
    steps = data["trace"]
    sizes = [sum(len(row) for row in s["insertion"]["rows"]) for s in steps]
    headers = [b for b in blocks(run.call("rsk", p, "--trace")) if b.startswith("step ")]
    return (len(steps) == len(headers) == len(perm) + 1 and steps[-1] == data["result"]
            and sizes == list(range(len(perm) + 1))
            and len(steps[-1]["insertion"]["rows"][0]) == lis(perm))


def case_bk(run: CliPass, rows: list[list[int]], inner, index: int) -> bool:
    extra = ["--inner", fmt_shape(inner)] if inner else []
    once = run.json("bk", fmt_rows(rows), str(index), *extra)["result"]["rows"]
    twice = parse_grid(run.call("bk", fmt_rows(once), str(index), *extra).splitlines())
    flat, flat_once = [v for row in rows for v in row], [v for row in once for v in row]
    return (twice == rows and flat_once.count(index) == flat.count(index + 1)
            and flat_once.count(index + 1) == flat.count(index))


class Cli:
    """145 in-process ``tableaux`` commands covering every subcommand, text and JSON."""

    RSK_SIZES = (1000, 2000, 5000)
    TRACE_SIZES = (8, 15, 30, 45, 60)
    # Fixed, not seeded: these are most of the calls above p90, and the cost of a
    # product at width 5-6 varies severalfold with the shapes, which moved
    # query_p90_ms by 20% between seeds.
    VERIFY = (((2, 1), (2, 1), (3, 2, 1)), ((2,), (3,), (4, 1)), ((1, 1), (2,), (2, 1, 1)))
    EXPAND = (((1, 1), (2,)), ((2,), (2, 1)), ((2, 1), (2, 1)), ((3,), (1, 1, 1)))

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def pick(n: int) -> tuple[int, ...]:
            return rng.choice(partitions(n))

        def perm(n: int) -> list[int]:
            return rng.sample(range(1, n + 1), n)

        script = []
        script += [(case_syt, (pick(n),)) for n in (4, 5, 6, 6, 7, 7)]
        for n in (3, 4, 4, 5, 5):
            shape = pick(n)
            script.append((case_ssyt, (shape, len(shape) + rng.randint(0, 1))))
        for n in (5, 6, 6, 7, 7):
            outer = pick(n)
            inner = rng.choice([p for k in (1, 2, 3) for p in partitions(k) if contains(outer, p)])
            script.append((case_ssyt, (outer, 3, inner)))
        for n in (2, 3, 3, 4, 4):
            shape = pick(n)
            script.append((case_schur, (shape, len(shape) + rng.randint(1, 2))))
        for m in (3, 3, 6, 6, 6):  # staircase sizes: |[2,1]| = 3, |[3,2,1]| = 6
            lam, mu = pick(6), pick(m)
            nu = rng.choice([p for p in partitions(6 + m) if contains(p, lam) and contains(p, mu)])
            script.append((case_lr, (lam, mu, nu)))
        script += [(case_verify, args) for args in self.VERIFY]
        script += [(case_expand, args) for args in self.EXPAND]
        script += [(case_rsk, (perm(n), i > 0)) for i, n in enumerate(self.RSK_SIZES)]
        script += [(case_rsk, (perm(n), n % 2 == 0)) for n in (3, 4, 5, 6, 6, 7, 7, 8, 9, 9)]
        script += [(case_trace, (perm(n),)) for n in self.TRACE_SIZES]
        for n, k in ((4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (6, 2), (7, 3), (8, 3)):
            outer = pick(n)
            inner = rng.choice([p for p in partitions(k) if contains(outer, p) and p != outer])
            full = random_ssyt(outer, rng)
            rows = [row[inner[r] if r < len(inner) else 0:] for r, row in enumerate(full)]
            top = max(v for row in full for v in row)
            script.append((case_bk, (rows, inner, rng.randint(1, max(1, top - 1)))))
        self.script = script

    def run_batch(self, pace_s: float | None = None) -> Batch:
        run = CliPass(pace_s)
        for case, args in self.script:
            first = len(run.batch.latencies)
            try:
                ok = case(run, *args)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                _failed(f"cli {case.__name__}{args}")
                run.batch.failed += max(1, len(run.batch.latencies) - first)
        run.batch.work = _cache_counts({
            "calls": len(run.batch.latencies),
            "stdout_bytes": run.stdout_bytes,
            "nonzero_exits": run.nonzero_exits,
            "stdout_sha256": run.digest.hexdigest(),
        })
        return run.batch


WORKLOADS = {"oracle": Oracle, "lr_table": LrTable, "cli": Cli}
