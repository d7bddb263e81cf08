"""The guards every command passes before it draws: ``check_fits`` for every
size checked against physical RAM, and ``check_work`` for every count of
draws.  Each caller keeps its measured footprint by its allocations."""

import os

# the most draws one command may ask for: samples of a twirl, or simulated
# rounds (trials x rounds a trial).  It is a count, not a time, so whether a
# command runs never depends on the host.  The cheapest draws, one-way rounds
# and one-pair twirl samples at d = 2, take about 0.2-0.5 us each at one BLAS
# thread, so the ceiling is minutes of work, and a larger twirl hours
MAX_DRAWS = 10**9


def ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits(what: str, name: str, value: int, least: int, need) -> None:
    """Refuse ``what`` at ``name`` = ``value`` when its ``need(value)`` bytes
    exceed physical RAM, naming the largest ``name`` >= ``least`` that fits.
    ``need`` must not decrease; the largest fit is found by bisection."""
    ram, needed = ram_bytes(), need(value)
    if needed > ram:
        fits, over = least - 1, value  # need(over) > ram; fits is least - 1 or fits
        while over - fits > 1:
            mid = (fits + over) // 2
            fits, over = (mid, over) if need(mid) <= ram else (fits, mid)
        raise ValueError(
            f"{what} needs about {needed} bytes, more than the {ram} bytes of RAM; "
            + (f"the largest {name} that fits is {fits}" if fits >= least else f"no {name} fits")
        )


def check_work(what: str, name: str, value: int, draws_each: int = 1) -> None:
    """Refuse ``what`` at ``name`` = ``value`` when its ``value * draws_each``
    draws exceed ``MAX_DRAWS``, naming the largest ``name`` allowed."""
    draws = value * draws_each
    if draws > MAX_DRAWS:
        most = MAX_DRAWS // draws_each
        raise ValueError(
            f"{what} makes {draws} draws, more than the ceiling of {MAX_DRAWS}; "
            + (f"the largest {name} allowed is {most}" if most >= 1 else f"no {name} is allowed")
        )
