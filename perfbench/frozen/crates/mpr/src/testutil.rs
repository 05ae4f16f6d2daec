//! A zero-latency loopback harness for protocol tests.
//!
//! Shuttles `Action::Send` packets between a set of engines until
//! quiescence, with no notion of time. Used by this crate's tests and by
//! `abr_core`'s; the *timed* drivers live in `abr_cluster`.

use crate::engine::{Action, MessageEngine};
use crate::request::Outcome;
use crate::ReqId;
use abr_gm::packet::Packet;
use std::collections::HashMap;

/// A loopback network connecting `N` engines.
pub struct Loopback<E: MessageEngine> {
    /// The engines, indexed by rank.
    pub engines: Vec<E>,
    wire_seq: HashMap<(u32, u32), u64>,
    /// Signal-enabled state per rank, mirroring `Action::EnableSignals`.
    pub signals_enabled: Vec<bool>,
    /// Deliver packets through `handle_signal` when the destination has
    /// signals enabled and the packet is of the collective kind (emulating
    /// the NIC). When false, packets just sit until someone progresses.
    pub signal_dispatch: bool,
    /// Count of signals dispatched.
    pub signals_fired: u64,
    /// When set, each routing batch is delivered in a pseudo-random
    /// cross-pair interleaving (per-(src,dst) order is preserved, as GM
    /// guarantees) — chaos testing for ordering assumptions.
    pub shuffle_seed: Option<u64>,
    shuffle_state: u64,
    /// When > 0, each (src,dst) pair's batch may be *held back* for a round
    /// with this probability (percent), modelling arbitrarily slow links —
    /// per-pair order still holds. Requires `shuffle_seed`.
    pub defer_percent: u8,
    deferred: Vec<Packet>,
    /// Packets consumed by NIC-side pre-processing (never reached a host).
    pub nic_consumed: u64,
}

impl<E: MessageEngine> Loopback<E> {
    /// Wrap a set of engines (index = rank).
    pub fn new(engines: Vec<E>) -> Self {
        let n = engines.len();
        Loopback {
            engines,
            wire_seq: HashMap::new(),
            signals_enabled: vec![false; n],
            signal_dispatch: false,
            signals_fired: 0,
            shuffle_seed: None,
            shuffle_state: 0,
            defer_percent: 0,
            deferred: Vec::new(),
            nic_consumed: 0,
        }
    }

    /// Interleave a batch of packets pseudo-randomly while preserving each
    /// (src, dst) pair's relative order.
    fn shuffle_batch(&mut self, batch: Vec<Packet>) -> Vec<Packet> {
        let Some(seed) = self.shuffle_seed else {
            debug_assert_eq!(self.defer_percent, 0, "deferral requires a shuffle seed");
            return batch;
        };
        // Prepend anything held back from earlier rounds so per-pair FIFO
        // holds across deferrals.
        let mut batch = batch;
        if !self.deferred.is_empty() {
            let mut all = std::mem::take(&mut self.deferred);
            all.extend(batch);
            batch = all;
        }
        let mut state = seed ^ self.shuffle_state ^ 0x9E37_79B9_7F4A_7C15;
        self.shuffle_state = self.shuffle_state.wrapping_add(1);
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Group per ordered pair, then riffle the group fronts randomly.
        let mut groups: Vec<((u32, u32), std::collections::VecDeque<Packet>)> = Vec::new();
        for p in batch {
            let key = (p.header.src.0, p.header.dst.0);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push_back(p),
                None => {
                    let mut g = std::collections::VecDeque::new();
                    g.push_back(p);
                    groups.push((key, g));
                }
            }
        }
        // Optionally hold entire pair-batches back a round (slow links).
        if self.defer_percent > 0 {
            let mut kept = Vec::new();
            for (key, g) in groups.drain(..) {
                if (rand() % 100) < self.defer_percent as u64 {
                    self.deferred.extend(g);
                } else {
                    kept.push((key, g));
                }
            }
            groups = kept;
        }
        let mut out = Vec::new();
        while !groups.is_empty() {
            let i = (rand() % groups.len() as u64) as usize;
            if let Some(p) = groups[i].1.pop_front() {
                out.push(p);
            }
            if groups[i].1.is_empty() {
                groups.swap_remove(i);
            }
        }
        out
    }

    /// Packets currently held back by deferral injection.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Collect and route all pending actions from every engine. Returns the
    /// number of packets moved.
    pub fn route_once(&mut self) -> usize {
        let mut in_flight: Vec<Packet> = Vec::new();
        for e in self.engines.iter_mut() {
            for a in e.drain_actions() {
                match a {
                    Action::Send(p) => in_flight.push(p),
                    Action::EnableSignals => {
                        self.signals_enabled[e.rank() as usize] = true;
                    }
                    Action::DisableSignals => {
                        self.signals_enabled[e.rank() as usize] = false;
                    }
                }
            }
        }
        let in_flight = self.shuffle_batch(in_flight);
        let moved = in_flight.len();
        for mut p in in_flight {
            let key = (p.header.src.0, p.header.dst.0);
            let seq = self.wire_seq.entry(key).or_insert(0);
            p.header.wire_seq = *seq;
            *seq += 1;
            let dst = p.header.dst.index();
            // NIC-side pre-processing happens at arrival (the NIC-offload
            // extension); a consumed packet never reaches the host.
            let Some(p) = self.engines[dst].nic_preprocess(p) else {
                self.nic_consumed += 1;
                continue;
            };
            let signal = self.signal_dispatch && self.signals_enabled[dst] && p.generates_signal();
            self.engines[dst].deliver(p);
            if signal {
                self.signals_fired += 1;
                self.engines[dst].handle_signal();
                // handle_signal may emit follow-on actions; they are picked
                // up by the next route_once pass.
            }
        }
        moved
    }

    /// Make progress on every engine once. Returns true if anything moved.
    pub fn progress_all(&mut self) -> bool {
        let mut any = false;
        for e in self.engines.iter_mut() {
            any |= e.progress();
        }
        any
    }

    /// Route and progress until quiescent or `max_spins` is hit.
    ///
    /// # Panics
    /// Panics if the system fails to quiesce (a protocol deadlock or
    /// livelock in the code under test).
    pub fn run_to_quiescence(&mut self, max_spins: usize) {
        let mut idle_rounds = 0;
        for _ in 0..max_spins {
            let moved = self.route_once();
            let progressed = self.progress_all();
            if moved == 0 && !progressed && self.deferred.is_empty() {
                idle_rounds += 1;
                if idle_rounds >= 2 {
                    return;
                }
            } else {
                idle_rounds = 0;
            }
        }
        panic!("loopback failed to quiesce in {max_spins} spins");
    }

    /// Run until the given requests all complete (or panic after
    /// `max_spins`).
    pub fn run_until_complete(&mut self, reqs: &[(usize, ReqId)], max_spins: usize) {
        for _ in 0..max_spins {
            if reqs.iter().all(|&(r, id)| self.engines[r].test(id)) {
                return;
            }
            self.route_once();
            self.progress_all();
        }
        let stuck: Vec<_> = reqs
            .iter()
            .filter(|&&(r, id)| !self.engines[r].test(id))
            .collect();
        panic!("requests never completed: {stuck:?}");
    }

    /// Take a completed outcome, panicking on failure outcomes.
    pub fn expect_data(&mut self, rank: usize, req: ReqId) -> bytes::Bytes {
        match self.engines[rank].take_outcome(req) {
            Some(Outcome::Data(d)) => d,
            other => panic!("rank {rank} request {req:?}: expected data, got {other:?}"),
        }
    }

    /// Take a completed outcome, expecting plain completion.
    pub fn expect_done(&mut self, rank: usize, req: ReqId) {
        match self.engines[rank].take_outcome(req) {
            Some(Outcome::Done) => {}
            other => panic!("rank {rank} request {req:?}: expected done, got {other:?}"),
        }
    }
}

/// Build `n` baseline engines with a config.
pub fn engines(n: u32, config: crate::engine::EngineConfig) -> Vec<crate::engine::Engine> {
    (0..n)
        .map(|r| crate::engine::Engine::new(r, n, config.clone()))
        .collect()
}
