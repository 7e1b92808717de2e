"""The benchmark's workloads: fixed polycauchy2 CLI invocations, and what each is for.

Every invocation is a CLI command line, split on spaces into the argv of
``polycauchy2.cli.main``. None passes ``--jobs``, so the flag can be dropped
without breaking the benchmark. Invocations of the two table workloads also
get ``--cache PATH``; the runner adds the path, so it is not part of an
invocation's label.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

# Series route (Series.compose, a Fraction multiply at every Horner step) and
# formula route; the convolution oracle is never called.
SEQUENCE = (
    "verify thm1 --nmax 30",
    "polycauchy --route both --k -2 --nmax 40",
    "verify cor1 --nmax 40",
    "verify eqll --nmax 200",
    "verify eqconvo02 --nmax 150",
    "verify arcsinh_power --nmax 120",
)

# convolve, the closed-form right-hand sides and the conjecture solve; no
# Series call at all.
CONVOLUTION = (
    "verify thm2 --nmax 120",
    "verify thm3 --nmax 120",
    "verify thm4 --nmax 100",
    "verify thm5 --nmax 80",
    "verify thm6 --nmax 50",
    "verify fold5 --nmax 40",
    "verify fold7 --nmax 40",
    "verify conjecture-r1",
    "verify conjecture-r2",
    "verify conjecture-r3",
)

# Triangle build, the formula table, about 20 MB of integers rendered as
# text, and cache writes or reads.
TABLES = (
    "stirling2 --nmax 300",
    "stirling2 --nmax 300 --signed --format json",
    "polycauchy --k 1 --nmax 300",
    "polycauchy --k 3 --nmax 200 --format json",
    "polycauchy --k -2 --nmax 200 --format tsv",
)

# C_4^(-6200) has 4334 digits, past Python's default limit of 4300 digits for
# int-to-text conversion. At the time the benchmark was defined the CLI exits
# 2 on this call; it stays in tables-cold so that the defect keeps showing in
# pass_ratio until it is fixed.
PROBE = "polycauchy --k -6200 --nmax 2"


@dataclass(frozen=True)
class Workload:
    invocations: tuple[str, ...]
    # None: no --cache. "cold": a cache file that does not exist yet.
    # "warm": a cache file filled by the same invocation before timing.
    cache: str | None


WORKLOADS = {
    "sequence": Workload(SEQUENCE, None),
    "convolution": Workload(CONVOLUTION, None),
    "tables-cold": Workload(TABLES + (PROBE,), "cold"),
    "tables-warm": Workload(TABLES, "warm"),
}


def probe_stdout() -> bytes:
    """The probe's correct stdout, from the closed form rather than from the CLI.

    C_0 = 1, C_2 = 3^6200 and C_4 = 5^6200 - 4 * 3^6200, in the CLI's csv
    layout. The int-to-text digit limit is lifted only around this rendering.
    """
    values = [1, 3**6200, 5**6200 - 4 * 3**6200]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = "n,value\n" + "".join(f"{n},{value}\n" for n, value in enumerate(values))
    finally:
        sys.set_int_max_str_digits(previous)
    return text.encode()


def probe_reference() -> dict:
    data = probe_stdout()
    return {"exit": 0, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


_NOT_SEQUENCE = ("convolution", "tables-cold", "tables-warm")
_NOT_CONVOLUTION = ("sequence", "tables-cold", "tables-warm")

# Layer metrics predicted to read exactly 0 on the named workloads, written
# down before any optimisation (README.md maps every layer metric to the
# end-to-end metric it should move). The traced run reports every
# prediction that does not hold.
PREDICTED_ZERO = {
    "series.self_s": _NOT_SEQUENCE,
    "series.compose_s": _NOT_SEQUENCE,
    "series.compose_calls": _NOT_SEQUENCE,
    "series.mul_s": _NOT_SEQUENCE,
    "series.mul_calls": _NOT_SEQUENCE,
    "series.builtin_s": _NOT_SEQUENCE,
    "convolution.convolve_s": _NOT_CONVOLUTION,
    "convolution.convolve_calls": _NOT_CONVOLUTION,
    "convolution.unique_ratio": _NOT_CONVOLUTION,
    "convolution.rhs_s": _NOT_CONVOLUTION,
    "convolution.solve_s": _NOT_CONVOLUTION,
    "convolution.verify_s": ("tables-cold", "tables-warm"),
}
