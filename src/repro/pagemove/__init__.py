"""PageMove: fast page migration between HBM channels (paper Section 4).

Three cooperating pieces:

* :mod:`repro.pagemove.address_mapping` — the customized physical address
  mapping of Figure 8, which confines every page to one channel index
  (replicated across stacks) and spreads it over all bank groups, so a
  page migration is an intra-stack, bank-group-parallel operation.
* :mod:`repro.pagemove.engine` — the migration engine: plans which pages
  move when channels change hands, drives the command-level HBM model for
  PPMM execution, and updates TLBs/page tables/driver state coherently.
* :mod:`repro.pagemove.cost` — the calibrated analytic cost model used by
  the epoch-level system simulation, with one mode per evaluated design
  point (PPMM / software-only / traditional).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.pagemove.address_mapping": (
        "ColumnLocation", "PageCoordinates", "PageMoveAddressMapping",
        "InterleavedPageMapping",
    ),
    "repro.pagemove.cost": ("MigrationMode", "MigrationCostModel"),
    "repro.pagemove.engine": (
        "MigrationEngine", "MigrationPlan", "MigrationReport", "PageMigration",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
