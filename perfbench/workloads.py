"""The benchmark's workloads: which suites run, over which ranges, on how many workers.

Each suite entry becomes one ``zonalkit verify`` call with ``--json`` and
``--timings``.  ``kernels`` names the (n, k) kernels whose exact expansion
is checked against the reference recurrence after the timed region: the
largest ``zonal_direct`` each exact workload builds.  ``speed_scaled`` says
whether its times are scaled to the reference speed of ``calib.py``.
"""

from __future__ import annotations

WORKLOADS = {
    # Kelvin, <y,grad_x> and canonicalisation on Laurent terms, plus the
    # largest digests; almost no coordinate products.
    "ladder": {
        "threads": 1,
        "speed_scaled": True,
        "suites": [("ladder", {"nmax": 6, "kmax": 6})],
        "kernels": [(6, 6)],
    },
    # Route seeds from xyc_power_real, so RadialExpr.__mul__ dominates;
    # Laplacians on |x|^(-2k)-weighted terms; paired kelvin/eta cells.
    "paravector": {
        "threads": 1,
        "speed_scaled": True,
        "suites": [("eta", {"mmax": 2, "kmax": 3}),
                   ("clifford", {"mmax": 2, "kmax": 3}),
                   ("kelvin", {"kmax": 4})],
        "kernels": [(7, 4), (3, 8), (1, 10)],
    },
    # Float evaluation only; the only workload that uses the seed.
    "montecarlo": {
        "threads": 1,
        "suites": [("reproducing", {"nmax": 3, "kmax": 3, "samples": 1_000_000})],
        "kernels": [],
        "seeded": True,
        # its time is spent in numpy's vectorised loops, which the pure-Python
        # speed probe does not track: in five runs the measured medians
        # spread by 4% and the scaled ones by 11%, so times are as measured
        "speed_scaled": False,
    },
    # Uneven cells on the process pool; radial-free Laplacians, zonal_lift
    # and, for m = 3, the invariant algebra.
    "laplacian": {
        "threads": 2,
        "speed_scaled": True,
        "suites": [("laplacian", {"mmax": 3, "kmax": 4})],
        "kernels": [(6, 4)],
    },
}


def verify_argv(suite: str, ranges: dict, threads: int, seed: int, report: str) -> list[str]:
    """The ``zonalkit verify`` arguments for one suite of a workload."""
    argv = ["verify", "--suite", suite, "--threads", str(threads), "--seed", str(seed),
            "--json", report, "--timings"]
    for name, value in ranges.items():
        argv += [f"--{name}", str(value)]
    return argv


def suite_seed(workload: str, seed: int) -> int:
    """The seed a workload passes to verify: the exact suites ignore --seed."""
    return seed % 2 ** 32 if WORKLOADS[workload].get("seeded") else 0
