//! Placement, re-exported from its new home in `bnb-router`.
//!
//! The four placement policies, the batched candidate machinery and
//! the derived structures (alias table, membership ring, rendezvous
//! scores) used to live in this module; they are now the standalone
//! [`bnb_router`] data plane, which this simulator drives through
//! [`bnb_router::PlacementEngine`] against the fleet's per-server
//! records (the fleet implements [`bnb_router::LoadView`]). The RNG
//! streams, candidate block size and tie-break semantics moved
//! unchanged, so traces are byte-identical across the move — the
//! registry-wide differential tests pin that.
//!
//! Construct engines through [`bnb_router::RouterBuilder`] (or
//! [`PlacementEngine::new`] with a [`bnb_router::Membership`], e.g. from
//! [`Fleet::membership`](crate::fleet::Fleet::membership)).

pub use bnb_router::{PlacementEngine, PlacementSpec};

#[cfg(test)]
mod tests {
    use crate::fleet::Fleet;
    use bnb_router::LoadView;

    #[test]
    fn fleet_load_view_mirrors_joins_and_departs() {
        let mut fleet = Fleet::new(&[2, 4], Some(8));
        fleet.try_join(1, 0.5);
        fleet.try_join(1, 0.6);
        assert_eq!(fleet.load(1), (2, 4));
        assert_eq!(fleet.queue_len(0), 0);
        let _ = fleet.depart(1, 1.0);
        assert_eq!(fleet.load(1), (1, 4));
    }
}
