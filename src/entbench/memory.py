"""The one memory guard: every size checked against physical RAM goes through
``check_fits``.  Each caller keeps its measured footprint by its allocations."""

import os


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
