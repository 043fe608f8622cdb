"""PageMove's in-DRAM routing hardware.

Two small structures from Section 4.2 of the paper:

* :class:`TriStateDecoder` — in a stock HBM stack every TSV bundle is
  physically connected to every die, but tri-state buffers with decoder
  logic electrically bind each bundle to exactly one die at manufacture.
  PageMove enhances the decoder (on the logic die) so bindings can be
  switched at run time, letting an idle channel's TSVs carry another die's
  migration traffic.
* :class:`BankGroupCrossbar` — the original design wires a channel's 4 bank
  groups to its own TSV set through a 4x1 crossbar (one transfer at a
  time).  PageMove replaces it with a fully connected 4x8 crossbar so each
  bank group can drive *any* of the stack's 8 TSV bundles concurrently.

Both are modelled as explicit connection tables with conflict checking, so
tests can assert that PageMove never double-books a TSV bundle and that
the stock 4x1 configuration serializes transfers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ProtocolError


class TriStateDecoder:
    """Run-time binding of TSV bundles to DRAM dies.

    In the stock configuration bundle *i* is bound to die *i* permanently.
    PageMove's enhanced decoder allows rebinding; the model tracks, per
    bundle, which die currently drives it and until which cycle.
    """

    def __init__(self, num_bundles: int, enhanced: bool = True) -> None:
        if num_bundles <= 0:
            raise ProtocolError(f"need at least one TSV bundle, got {num_bundles}")
        self.num_bundles = num_bundles
        self.enhanced = enhanced
        #: bundle -> (die, busy_until_cycle); None when default-bound & idle.
        self._grants: Dict[int, tuple] = {}

    def default_die(self, bundle: int) -> int:
        """The die a bundle serves in the stock (manufactured) binding."""
        self._check_bundle(bundle)
        return bundle

    def grant(self, bundle: int, die: int, now: int, until: int) -> None:
        """Bind ``bundle`` to ``die`` for the interval [now, until).

        Raises :class:`ProtocolError` (see :meth:`check_grant`) without
        changing any binding when the grant is not possible.
        """
        self.check_grant(bundle, die, now, until)
        self._grants[bundle] = (die, until)

    def check_grant(self, bundle: int, die: int, now: int, until: int) -> None:
        """Raise :class:`ProtocolError` if :meth:`grant` would refuse:
        the decoder is not enhanced and ``die`` is not the bundle's own,
        the interval is empty, or the bundle is granted past ``now``."""
        self._check_bundle(bundle)
        if not self.enhanced and die != bundle:
            raise ProtocolError(
                "stock tri-state decoder cannot rebind TSV bundle "
                f"{bundle} to die {die}"
            )
        if until <= now:
            raise ProtocolError(f"empty grant interval [{now}, {until})")
        current = self._grants.get(bundle)
        if current is not None and current[1] > now:
            raise ProtocolError(
                f"TSV bundle {bundle} busy until {current[1]}, requested at {now}"
            )

    def driver_of(self, bundle: int, now: int) -> int:
        """Which die drives ``bundle`` at cycle ``now``."""
        self._check_bundle(bundle)
        grant = self._grants.get(bundle)
        if grant is not None and grant[1] > now:
            return grant[0]
        return self.default_die(bundle)

    def is_free(self, bundle: int, now: int) -> bool:
        """True if the bundle carries no explicit grant at ``now``."""
        grant = self._grants.get(bundle)
        return grant is None or grant[1] <= now

    def free_bundles(self, now: int) -> list:
        """Indices of bundles with no active grant at ``now``."""
        return [b for b in range(self.num_bundles) if self.is_free(b, now)]

    def release(self, bundle: int) -> None:
        """Drop any grant on ``bundle`` immediately."""
        self._check_bundle(bundle)
        self._grants.pop(bundle, None)

    def _check_bundle(self, bundle: int) -> None:
        if not 0 <= bundle < self.num_bundles:
            raise ProtocolError(
                f"TSV bundle {bundle} out of range [0, {self.num_bundles})"
            )


class BankGroupCrossbar:
    """Per-die crossbar from bank groups to TSV bundles.

    ``width=1`` models the stock 4x1 crossbar (all bank groups share one
    output port to the die's own TSV set); ``width=num_bundles`` models
    PageMove's fully connected 4x8 crossbar.
    """

    def __init__(self, num_bank_groups: int, num_bundles: int, width: Optional[int] = None) -> None:
        if num_bank_groups <= 0 or num_bundles <= 0:
            raise ProtocolError("crossbar dimensions must be positive")
        self.num_bank_groups = num_bank_groups
        self.num_bundles = num_bundles
        self.width = num_bundles if width is None else width
        if not 1 <= self.width <= num_bundles:
            raise ProtocolError(
                f"crossbar width {self.width} out of range [1, {num_bundles}]"
            )
        #: bank_group -> (bundle, busy_until)
        self._routes: Dict[int, tuple] = {}
        #: bundle -> busy_until (output-port conflicts)
        self._outputs: Dict[int, int] = {}

    @property
    def is_fully_connected(self) -> bool:
        return self.width == self.num_bundles

    def concurrent_capacity(self) -> int:
        """How many bank groups can transfer simultaneously."""
        return min(self.num_bank_groups, self.width)

    def connect(self, bank_group: int, bundle: int, now: int, until: int) -> None:
        """Route ``bank_group`` to ``bundle`` for [now, until).

        The stock crossbar (width 1) only reaches bundle equal to the die's
        own channel via its single output; we model that by rejecting any
        route when another bank group holds the output region.
        """
        if not 0 <= bank_group < self.num_bank_groups:
            raise ProtocolError(f"bank group {bank_group} out of range")
        if not 0 <= bundle < self.num_bundles:
            raise ProtocolError(f"bundle {bundle} out of range")
        if until <= now:
            raise ProtocolError(f"empty route interval [{now}, {until})")

        # Input-port conflict: one route per bank group at a time.
        route = self._routes.get(bank_group)
        if route is not None and route[1] > now:
            raise ProtocolError(
                f"bank group {bank_group} already routed until {route[1]}"
            )
        # Output-port conflict.
        busy = self._outputs.get(bundle, 0)
        if busy > now:
            raise ProtocolError(f"crossbar output to bundle {bundle} busy until {busy}")
        # Width limit: count distinct simultaneously active outputs.
        active = sum(1 for end in self._outputs.values() if end > now)
        if route is None or route[1] <= now:
            if active >= self.width:
                raise ProtocolError(
                    f"crossbar width {self.width} exhausted at cycle {now}"
                )
        self._routes[bank_group] = (bundle, until)
        self._outputs[bundle] = until

    def active_routes(self, now: int) -> Dict[int, int]:
        """Map of bank_group -> bundle for routes live at ``now``."""
        return {
            bg: bundle
            for bg, (bundle, until) in self._routes.items()
            if until > now
        }
