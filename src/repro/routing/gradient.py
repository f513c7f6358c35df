"""Weight-gradient (delegation) forwarding — the paper's push/pull relay rule.

Sec. V-A: "we use the opportunistic path weight to the central node as
the relay selection metric ... A relay forwards data to another node with
higher metric than itself, and deletes its own data copy afterwards",
which probabilistically shortens the remaining delay at every hop.

Each node maintains its shortest-opportunistic-path weight to every
destination it routes toward (the paper's nodes maintain exactly this for
the central nodes).  Weights come from the process-wide
:mod:`repro.graph.weight_cache`, keyed on graph content — so the push and
query routers of one scheme (and the NCL selection that preceded them)
share a single computation per (graph, destination, horizon) instead of
each maintaining private tables.  A decision reads only the carrier's
and the peer's weight, and the cache evaluates only the weights read.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.graph.contact_graph import ContactGraph
from repro.graph.paths import PathMode
from repro.graph.weight_cache import shared_weight_cache
from repro.routing.base import ForwardAction, ForwardDecision, ObservableRouter

__all__ = ["GradientRouter"]


class GradientRouter(ObservableRouter):
    """Unicast by climbing the path-weight gradient toward the destination.

    Parameters
    ----------
    horizon:
        Time budget T at which path weights are evaluated (the paper uses
        a per-trace T, Sec. IV-B).  Weights are *maintained tables*, so
        the horizon is fixed per router rather than per bundle.
    mode:
        Shortest-path objective (see :class:`repro.graph.paths.PathMode`).
    replicate:
        When ``True`` the carrier keeps its copy after forwarding
        (multi-copy gradient); the paper's push deletes the carrier copy,
        so the default is single-copy handover.
    """

    name = "gradient"

    def __init__(
        self,
        horizon: float,
        mode: PathMode = PathMode.EXPECTED_DELAY,
        replicate: bool = False,
    ):
        if horizon <= 0:
            raise ConfigurationError("gradient horizon must be positive")
        self._horizon = float(horizon)
        self._mode = mode
        self._replicate = replicate

    @property
    def horizon(self) -> float:
        return self._horizon

    def update_graph(self, graph: ContactGraph) -> None:
        """Install a fresh rate snapshot.

        Kept for API symmetry with the other routers: the shared weight
        cache keys on graph content, so a new snapshot needs no explicit
        invalidation here.
        """

    def weight_to(self, node: int, destination: int, graph: ContactGraph) -> float:
        """The maintained path weight from *node* to *destination*."""
        (weight,) = shared_weight_cache().weights_at(
            graph, destination, (node,), self._horizon, self._mode
        )
        return weight

    def decide(
        self,
        carrier: int,
        peer: int,
        destination: int,
        graph: ContactGraph,
        time_budget: float,
    ) -> ForwardDecision:
        if peer == destination:
            return self._observe(
                carrier,
                peer,
                destination,
                ForwardDecision(
                    action=ForwardAction.HANDOVER, carrier_score=0.0, peer_score=1.0
                ),
            )
        # One read for both scores: their Eq. (2) values, when not yet
        # memoised, are evaluated in a single batch.
        carrier_score, peer_score = shared_weight_cache().weights_at(
            graph, destination, (carrier, peer), self._horizon, self._mode
        )
        if peer_score > carrier_score:
            action = (
                ForwardAction.REPLICATE if self._replicate else ForwardAction.HANDOVER
            )
        else:
            action = ForwardAction.KEEP
        return self._observe(
            carrier,
            peer,
            destination,
            ForwardDecision(
                action=action, carrier_score=carrier_score, peer_score=peer_score
            ),
        )
