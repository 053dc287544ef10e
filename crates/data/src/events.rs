//! Append-only deal lifecycle event log.
//!
//! Group deals have sharp temporal dynamics: a deal **opens**, friends
//! **join**, and the deal either clinches (**full**) or **expires**. The
//! batch [`Dataset`](crate::Dataset) records only the final outcome of
//! each group; streaming ingestion needs the intermediate states, because
//! a recommendation that is right while a deal is live is wrong an hour
//! later when it has filled.
//!
//! [`EventLog`] is the ingestion-side contract: an append-only sequence
//! of [`DealEvent`]s with *logical* timestamps (the event's position in
//! the log — strictly increasing, no wall clock, fully deterministic).
//! Consumers replay a prefix of the log to answer "what state was every
//! deal in at time `t`?" (`EventLog::phases_at`) and project that onto
//! the item catalogue as a serving filter
//! ([`EventLog::blocked_items_at`]): the bit mask composes with the
//! per-user seen-filter in `gb-serve`.
//!
//! The synthetic generator emits a full lifecycle log alongside the
//! batch dataset ([`crate::synth::generate_with_events`]), so the
//! streaming path can be exercised end-to-end without real traffic.

use gb_graph::BitMatrix;

/// What happened to a deal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DealEventKind {
    /// A deal opened on `item`, launched by `initiator`, clinching at
    /// `threshold` joiners.
    Open {
        item: u32,
        initiator: u32,
        threshold: u32,
    },
    /// `user` joined the deal.
    Join { user: u32 },
    /// The deal reached its threshold and closed successfully.
    Full,
    /// The deal closed without clinching.
    Expire,
}

/// One append-only log record: a logical timestamp, the deal it belongs
/// to, and what happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DealEvent {
    /// Logical timestamp — the event's position in the log. Strictly
    /// increasing across the whole log.
    pub ts: u64,
    /// Deal id, assigned densely in open order.
    pub deal: u32,
    /// The state change.
    pub kind: DealEventKind,
}

/// A deal's state at some logical time, derived by replaying the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DealPhase {
    /// Open and accepting joiners.
    Live,
    /// Still open, but older than the expiry horizon — about to close.
    Expiring,
    /// Clinched: closed successfully.
    Full,
    /// Closed without clinching.
    Expired,
}

/// Per-deal replay bookkeeping (the validation state machine).
#[derive(Clone, Debug)]
struct DealTrack {
    item: u32,
    opened_at: u64,
    joined: u32,
    closed: Option<DealPhase>,
}

/// An append-only log of deal lifecycle events with logical timestamps.
///
/// Appends validate the lifecycle state machine: a deal opens exactly
/// once, accepts joins only while open, and closes (full or expired)
/// exactly once. Invalid transitions panic — a malformed ingest stream
/// must fail loudly at append time, not corrupt replays later.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<DealEvent>,
    deals: Vec<DealTrack>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new deal on `item`, returning its dense deal id.
    pub fn open(&mut self, item: u32, initiator: u32, threshold: u32) -> u32 {
        let deal = self.deals.len() as u32;
        let ts = self.stamp();
        self.deals.push(DealTrack {
            item,
            opened_at: ts,
            joined: 0,
            closed: None,
        });
        self.events.push(DealEvent {
            ts,
            deal,
            kind: DealEventKind::Open {
                item,
                initiator,
                threshold,
            },
        });
        deal
    }

    /// Records `user` joining `deal`.
    ///
    /// # Panics
    /// Panics if `deal` does not exist or is already closed.
    pub fn join(&mut self, deal: u32, user: u32) {
        let ts = self.stamp();
        let track = self.open_track(deal);
        track.joined += 1;
        self.events.push(DealEvent {
            ts,
            deal,
            kind: DealEventKind::Join { user },
        });
    }

    /// Closes `deal` as clinched.
    ///
    /// # Panics
    /// Panics if `deal` does not exist or is already closed.
    pub fn full(&mut self, deal: u32) {
        self.close(deal, DealPhase::Full, DealEventKind::Full);
    }

    /// Closes `deal` as expired (did not clinch).
    ///
    /// # Panics
    /// Panics if `deal` does not exist or is already closed.
    pub(crate) fn expire(&mut self, deal: u32) {
        self.close(deal, DealPhase::Expired, DealEventKind::Expire);
    }

    fn close(&mut self, deal: u32, phase: DealPhase, kind: DealEventKind) {
        let ts = self.stamp();
        let track = self.open_track(deal);
        track.closed = Some(phase);
        self.events.push(DealEvent { ts, deal, kind });
    }

    /// The next logical timestamp (== the index the event will land at).
    fn stamp(&self) -> u64 {
        self.events.len() as u64
    }

    fn open_track(&mut self, deal: u32) -> &mut DealTrack {
        let track = self
            .deals
            .get_mut(deal as usize)
            .unwrap_or_else(|| panic!("deal {deal} was never opened"));
        assert!(
            track.closed.is_none(),
            "deal {deal} is already closed ({:?})",
            track.closed.unwrap()
        );
        track
    }

    /// The full event sequence, in append (= logical time) order.
    pub fn events(&self) -> &[DealEvent] {
        &self.events
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of deals opened so far.
    pub fn n_deals(&self) -> usize {
        self.deals.len()
    }

    /// The item a deal was opened on.
    ///
    /// # Panics
    /// Panics if `deal` was never opened.
    #[cfg(test)]
    pub(crate) fn deal_item(&self, deal: u32) -> u32 {
        self.deals[deal as usize].item
    }

    /// Number of joins recorded for a deal so far.
    ///
    /// # Panics
    /// Panics if `deal` was never opened.
    #[cfg(test)]
    pub(crate) fn deal_joiners(&self, deal: u32) -> u32 {
        self.deals[deal as usize].joined
    }

    /// Replays the prefix `ts <= now` and returns each opened deal's
    /// phase (index = deal id; `None` for deals opened after `now`).
    ///
    /// An open deal older than `expiring_after` logical ticks is
    /// [`DealPhase::Expiring`] — still joinable, but worth boosting or
    /// demoting differently from a fresh deal.
    pub(crate) fn phases_at(&self, now: u64, expiring_after: u64) -> Vec<Option<DealPhase>> {
        let mut phases = vec![None; self.deals.len()];
        for ev in &self.events {
            if ev.ts > now {
                break; // log order == time order
            }
            let slot = &mut phases[ev.deal as usize];
            match ev.kind {
                DealEventKind::Open { .. } => *slot = Some(DealPhase::Live),
                DealEventKind::Join { .. } => {}
                DealEventKind::Full => *slot = Some(DealPhase::Full),
                DealEventKind::Expire => *slot = Some(DealPhase::Expired),
            }
        }
        // Age still-open deals against the horizon.
        for (deal, phase) in phases.iter_mut().enumerate() {
            if *phase == Some(DealPhase::Live)
                && now.saturating_sub(self.deals[deal].opened_at) >= expiring_after
            {
                *phase = Some(DealPhase::Expiring);
            }
        }
        phases
    }

    /// Each item's phase at `now`: the phase of its most recently opened
    /// deal (`None` for items with no deal opened by `now`). Item ids
    /// must fit `n_items`.
    ///
    /// # Panics
    /// Panics if any opened deal's item id is `>= n_items`.
    pub(crate) fn item_phases_at(
        &self,
        now: u64,
        expiring_after: u64,
        n_items: usize,
    ) -> Vec<Option<DealPhase>> {
        let phases = self.phases_at(now, expiring_after);
        let mut items = vec![None; n_items];
        // Ascending deal id == open order, so later deals overwrite.
        for (deal, phase) in phases.iter().enumerate() {
            if let Some(p) = *phase {
                let item = self.deals[deal].item as usize;
                assert!(item < n_items, "deal {deal} on item {item} >= {n_items}");
                items[item] = Some(p);
            }
        }
        items
    }

    /// The serving-side candidate filter at `now`: bit `(0, item)` is set
    /// iff the item must be **blocked** — its deal phase is not in
    /// `allowed`, or (`block_undealt`) it has no deal at all. The 1-row
    /// [`BitMatrix`] plugs into `gb-serve`'s deal-state filter, composed
    /// with the per-user seen-filter.
    pub fn blocked_items_at(
        &self,
        now: u64,
        expiring_after: u64,
        allowed: &[DealPhase],
        block_undealt: bool,
        n_items: usize,
    ) -> BitMatrix {
        let phases = self.item_phases_at(now, expiring_after, n_items);
        let mut blocked = BitMatrix::zeros(1, n_items);
        for (item, phase) in phases.iter().enumerate() {
            let allow = match phase {
                Some(p) => allowed.contains(p),
                None => !block_undealt,
            };
            if !allow {
                blocked.set(0, item);
            }
        }
        blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// open d0(item 3) → join → full; open d1(item 5) → expire;
    /// open d2(item 3) stays live.
    fn sample() -> EventLog {
        let mut log = EventLog::new();
        let d0 = log.open(3, 0, 1); // ts 0
        log.join(d0, 7); // ts 1
        log.full(d0); // ts 2
        let d1 = log.open(5, 1, 2); // ts 3
        log.expire(d1); // ts 4
        log.open(3, 2, 2); // ts 5, stays live
        log
    }

    #[test]
    fn timestamps_are_strictly_increasing_log_positions() {
        let log = sample();
        assert_eq!(log.len(), 6);
        assert_eq!(log.n_deals(), 3);
        assert_eq!(log.deal_joiners(0), 1);
        assert_eq!(log.deal_joiners(1), 0);
        for (i, ev) in log.events().iter().enumerate() {
            assert_eq!(ev.ts, i as u64);
        }
        assert_eq!(log.deal_item(1), 5);
    }

    #[test]
    fn replay_reports_phases_at_any_prefix() {
        let log = sample();
        let horizon = 100; // far: nothing ages into Expiring
        assert_eq!(
            log.phases_at(0, horizon),
            vec![Some(DealPhase::Live), None, None]
        );
        assert_eq!(
            log.phases_at(2, horizon),
            vec![Some(DealPhase::Full), None, None]
        );
        assert_eq!(
            log.phases_at(3, horizon),
            vec![Some(DealPhase::Full), Some(DealPhase::Live), None]
        );
        assert_eq!(
            log.phases_at(6, horizon),
            vec![
                Some(DealPhase::Full),
                Some(DealPhase::Expired),
                Some(DealPhase::Live)
            ]
        );
    }

    #[test]
    fn open_deals_age_into_expiring() {
        let log = sample();
        // d2 opened at ts 5; with horizon 0 it is instantly Expiring.
        assert_eq!(log.phases_at(5, 0)[2], Some(DealPhase::Expiring));
        assert_eq!(log.phases_at(5, 1)[2], Some(DealPhase::Live));
        assert_eq!(log.phases_at(7, 2)[2], Some(DealPhase::Expiring));
        // Closed deals never age.
        assert_eq!(log.phases_at(100, 0)[0], Some(DealPhase::Full));
    }

    #[test]
    fn item_phase_is_the_most_recent_deal() {
        let log = sample();
        let items = log.item_phases_at(6, 100, 8);
        // Item 3 had d0 (Full) then d2 (Live): the later deal wins.
        assert_eq!(items[3], Some(DealPhase::Live));
        assert_eq!(items[5], Some(DealPhase::Expired));
        assert_eq!(items[0], None);
        // Before d2 opens, item 3 shows d0's state.
        assert_eq!(log.item_phases_at(4, 100, 8)[3], Some(DealPhase::Full));
    }

    #[test]
    fn blocked_filter_masks_disallowed_phases() {
        let log = sample();
        // Serve only live/expiring deals; undealt items stay eligible.
        let blocked = log.blocked_items_at(
            u64::MAX,
            100,
            &[DealPhase::Live, DealPhase::Expiring],
            false,
            8,
        );
        assert!(!blocked.contains(0, 3), "live deal item allowed");
        assert!(blocked.contains(0, 5), "expired deal item blocked");
        assert!(!blocked.contains(0, 0), "undealt item allowed");

        // Flash-sale mode: only items with a live deal are eligible.
        let flash = log.blocked_items_at(6, 100, &[DealPhase::Live], true, 8);
        assert!(!flash.contains(0, 3));
        assert!(flash.contains(0, 5));
        assert!(flash.contains(0, 0), "undealt item blocked in flash mode");
        assert_eq!(flash.count(), 7);
    }

    #[test]
    #[should_panic(expected = "already closed")]
    fn join_after_close_rejected() {
        let mut log = EventLog::new();
        let d = log.open(0, 0, 1);
        log.full(d);
        log.join(d, 3);
    }

    #[test]
    #[should_panic(expected = "never opened")]
    fn close_of_unknown_deal_rejected() {
        EventLog::new().expire(4);
    }

    #[test]
    #[should_panic(expected = "already closed")]
    fn double_close_rejected() {
        let mut log = EventLog::new();
        let d = log.open(0, 0, 1);
        log.expire(d);
        log.full(d);
    }
}
