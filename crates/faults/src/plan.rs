//! Seeded, fully deterministic fault schedules.
//!
//! A [`FaultPlan`] is a list of rules, each scoped to a set of links, packet
//! kinds, an optional virtual-time window, and optionally a single per-link
//! transmission attempt. Every fault decision is a *pure function* of
//! `(seed, rule index, src, dst, attempt)`: the injector derives a fresh
//! [`StreamRng`] stream per decision, so the schedule replays identically in
//! the discrete-event driver and the live threaded driver — the per-link
//! attempt counters advance the same way in both because the protocol sends
//! the same packet sequence over each link.

use abr_des::{FxHashMap, SimDuration, StreamRng};
use abr_gm::{Packet, PacketKind};
use abr_trace::{TraceEvent, TraceHandle};

/// Link selector for a fault rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSel {
    /// Every (src, dst) pair.
    Any,
    /// Packets sent by this node.
    From(u32),
    /// Packets addressed to this node.
    To(u32),
    /// One directed link.
    Between(u32, u32),
}

impl LinkSel {
    /// True if the rule applies to the directed link `src -> dst`.
    pub fn matches(self, src: u32, dst: u32) -> bool {
        match self {
            LinkSel::Any => true,
            LinkSel::From(s) => s == src,
            LinkSel::To(d) => d == dst,
            LinkSel::Between(s, d) => s == src && d == dst,
        }
    }
}

/// Packet-kind selector for a fault rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindSel {
    /// Every packet kind.
    Any,
    /// Only the application-bypass collective kind.
    Collective,
    /// Only plain eager data.
    Eager,
    /// Rendezvous control and data packets.
    Rendezvous,
    /// Only reliability acknowledgements.
    Ack,
}

impl KindSel {
    /// True if the rule applies to `kind`.
    pub fn matches(self, kind: PacketKind) -> bool {
        match self {
            KindSel::Any => true,
            KindSel::Collective => kind == PacketKind::Collective,
            KindSel::Eager => kind == PacketKind::Eager,
            KindSel::Rendezvous => matches!(
                kind,
                PacketKind::RendezvousRts | PacketKind::RendezvousCts | PacketKind::RendezvousData
            ),
            KindSel::Ack => kind == PacketKind::Ack,
        }
    }
}

/// What a matching rule does to a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Lose the packet with probability `p`.
    Drop {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Transmit one extra copy with probability `p` (a NIC-level duplicate:
    /// both copies carry the same reliability sequence number).
    Duplicate {
        /// Per-packet duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Add `extra_ns` of one-way latency with probability `p`. Because the
    /// reliability layer re-orders delivery, a large enough delay *is* the
    /// reorder fault: the delayed packet overtakes nothing, but later
    /// packets overtake it on the wire.
    Delay {
        /// Per-packet delay probability in `[0, 1]`.
        p: f64,
        /// Extra one-way latency in nanoseconds.
        extra_ns: u64,
    },
    /// Stall the sender's NIC with probability `p`: this packet and every
    /// later packet from the same source accrue `stall_ns` of extra lag
    /// (a monotone firmware hiccup, order-preserving per source).
    NicStall {
        /// Per-packet stall probability in `[0, 1]`.
        p: f64,
        /// Stall length in nanoseconds, accumulated into the source's lag.
        stall_ns: u64,
    },
}

impl FaultKind {
    fn probability(self) -> f64 {
        match self {
            FaultKind::Drop { p }
            | FaultKind::Duplicate { p }
            | FaultKind::Delay { p, .. }
            | FaultKind::NicStall { p, .. } => p,
        }
    }
}

/// One scoped fault rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Which links the rule applies to.
    pub link: LinkSel,
    /// Which packet kinds the rule applies to.
    pub kinds: KindSel,
    /// Optional virtual-time window `[lo_ns, hi_ns)`. Window rules only
    /// match when the driver knows virtual time (the DES passes it; the
    /// live driver passes `None`, so cross-driver plans must be window-free).
    pub window: Option<(u64, u64)>,
    /// Restrict the rule to one specific per-link transmission attempt
    /// (0-based), for deterministic targeted scenarios such as "drop the
    /// first data packet on link 2 -> 0". `None` applies to every attempt.
    pub attempt: Option<u64>,
    /// The fault to inject.
    pub fault: FaultKind,
}

impl FaultRule {
    fn matches(&self, pkt: &Packet, now_ns: Option<u64>, attempt: u64) -> bool {
        if !self.link.matches(pkt.header.src.0, pkt.header.dst.0) {
            return false;
        }
        if !self.kinds.matches(pkt.header.kind) {
            return false;
        }
        if let Some(want) = self.attempt {
            if want != attempt {
                return false;
            }
        }
        match (self.window, now_ns) {
            (None, _) => true,
            (Some((lo, hi)), Some(now)) => lo <= now && now < hi,
            (Some(_), None) => false,
        }
    }
}

/// A seeded, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed for every probabilistic decision.
    pub seed: u64,
    /// Rules, evaluated in order for every transmission.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: no faults, and the drivers bypass the reliability
    /// layer entirely (cost-neutral with the pre-fault code paths).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            rules: Vec::new(),
        }
    }

    /// True if this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.rules.is_empty()
    }

    /// A uniform lossy-link plan: drop with probability `p` and duplicate
    /// with probability `p` on every link and packet kind.
    pub fn uniform_loss(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            rules: vec![
                FaultRule {
                    link: LinkSel::Any,
                    kinds: KindSel::Any,
                    window: None,
                    attempt: None,
                    fault: FaultKind::Drop { p },
                },
                FaultRule {
                    link: LinkSel::Any,
                    kinds: KindSel::Any,
                    window: None,
                    attempt: None,
                    fault: FaultKind::Duplicate { p },
                },
            ],
        }
    }

    /// Parse a scenario string, e.g.
    /// `"seed=42; drop p=0.01; dup p=0.005 from=3; delay p=0.02 extra_us=50 kind=coll"`.
    ///
    /// Clauses are `;`- or newline-separated. The first word of a clause is
    /// the fault (`drop`, `dup`, `delay`, `stall`) or the special clause
    /// `seed=N`. Remaining words are `key=value` pairs: `p` (in `[0, 1]`),
    /// `extra_us` and `stall_us` (finite, non-negative, rounded to the
    /// nanosecond), `from`, `to`, `between=SRC-DST`, `kind`
    /// (`any|coll|eager|rndv|ack`), `window_us=LO..HI`, `attempt=N`.
    /// Blank clauses and `#` comments are ignored.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for raw in spec.split([';', '\n']) {
            let clause = raw.split('#').next().unwrap_or("").trim();
            if clause.is_empty() {
                continue;
            }
            let mut words = clause.split_whitespace();
            let head = words.next().expect("non-empty clause has a first word");
            if let Some(seed) = head.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("fault plan: bad seed {seed:?}"))?;
                continue;
            }
            let mut p = None;
            let mut extra_ns = None;
            let mut stall_ns = None;
            let mut link = LinkSel::Any;
            let mut kinds = KindSel::Any;
            let mut window = None;
            let mut attempt = None;
            for word in words {
                let (key, value) = word
                    .split_once('=')
                    .ok_or_else(|| format!("fault plan: expected key=value, got {word:?}"))?;
                let bad = || format!("fault plan: bad value for {key}: {value:?}");
                let duration_ns = || {
                    let us = value.parse::<f64>().map_err(|_| bad())?;
                    if !(us.is_finite() && us >= 0.0) {
                        return Err(format!(
                            "fault plan: {key} must be a finite non-negative duration, \
                             got {value:?}"
                        ));
                    }
                    Ok(SimDuration::from_us_f64(us).as_nanos())
                };
                match key {
                    "p" => {
                        let prob = value.parse::<f64>().map_err(|_| bad())?;
                        if !(0.0..=1.0).contains(&prob) {
                            return Err(format!(
                                "fault plan: {key} must be a probability in [0, 1], got {value:?}"
                            ));
                        }
                        p = Some(prob);
                    }
                    "extra_us" => extra_ns = Some(duration_ns()?),
                    "stall_us" => stall_ns = Some(duration_ns()?),
                    "from" => link = LinkSel::From(value.parse().map_err(|_| bad())?),
                    "to" => link = LinkSel::To(value.parse().map_err(|_| bad())?),
                    "between" => {
                        let (s, d) = value.split_once('-').ok_or_else(|| {
                            format!("fault plan: between wants SRC-DST, got {value:?}")
                        })?;
                        link = LinkSel::Between(
                            s.parse().map_err(|_| bad())?,
                            d.parse().map_err(|_| bad())?,
                        );
                    }
                    "kind" => {
                        kinds = match value {
                            "any" => KindSel::Any,
                            "coll" => KindSel::Collective,
                            "eager" => KindSel::Eager,
                            "rndv" => KindSel::Rendezvous,
                            "ack" => KindSel::Ack,
                            other => return Err(format!("fault plan: unknown kind {other:?}")),
                        }
                    }
                    "window_us" => {
                        let (lo, hi) = value.split_once("..").ok_or_else(|| {
                            format!("fault plan: window_us wants LO..HI, got {value:?}")
                        })?;
                        let lo: u64 = lo.parse().map_err(|_| bad())?;
                        let hi: u64 = hi.parse().map_err(|_| bad())?;
                        window = Some((lo * 1_000, hi * 1_000));
                    }
                    "attempt" => attempt = Some(value.parse().map_err(|_| bad())?),
                    other => return Err(format!("fault plan: unknown key {other:?}")),
                }
            }
            let fault = match head {
                "drop" => FaultKind::Drop {
                    p: p.unwrap_or(1.0),
                },
                "dup" => FaultKind::Duplicate {
                    p: p.unwrap_or(1.0),
                },
                "delay" => FaultKind::Delay {
                    p: p.unwrap_or(1.0),
                    extra_ns: extra_ns.ok_or("fault plan: delay needs extra_us=..")?,
                },
                "stall" => FaultKind::NicStall {
                    p: p.unwrap_or(1.0),
                    stall_ns: stall_ns.ok_or("fault plan: stall needs stall_us=..")?,
                },
                other => return Err(format!("fault plan: unknown fault {other:?}")),
            };
            plan.rules.push(FaultRule {
                link,
                kinds,
                window,
                attempt,
                fault,
            });
        }
        Ok(plan)
    }

    /// The plan the `ABR_FAULTS` knob names, inline or as `@path` to a
    /// plan file; `None` when the knob is unset.
    ///
    /// # Panics
    /// On an unreadable file or an invalid plan, with a message naming
    /// `ABR_FAULTS`: never a silent fallback.
    pub fn from_env() -> Option<FaultPlan> {
        abr_trace::knob::FAULTS.read(|raw| match raw.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("ABR_FAULTS names unreadable file {path:?}: {e}"))
                .and_then(|spec| FaultPlan::parse(&spec)),
            None => FaultPlan::parse(raw),
        })
    }
}

/// The injector's verdict for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Copies to put on the wire: 0 = dropped, 1 = normal, 2+ = duplicated.
    pub copies: u32,
    /// Extra one-way latency (nanoseconds) applied to every copy, including
    /// the sender's accumulated NIC-stall lag.
    pub extra_delay_ns: u64,
}

impl Verdict {
    /// The verdict of the empty plan: one copy, no delay.
    pub fn clean() -> Self {
        Verdict {
            copies: 1,
            extra_delay_ns: 0,
        }
    }
}

/// Counters describing what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectStats {
    /// Transmissions evaluated.
    pub transmissions: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Extra copies created.
    pub duplicated: u64,
    /// Packets given extra delay (excluding pure stall lag).
    pub delayed: u64,
    /// NIC stalls triggered.
    pub stalls: u64,
}

/// Evaluates a [`FaultPlan`] against a stream of transmissions.
///
/// The injector is the only stateful piece: per-link attempt counters and
/// per-source stall lag. Both advance identically in the DES and live
/// drivers, so one seed yields one schedule everywhere.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    root: StreamRng,
    attempts: FxHashMap<(u32, u32), u64>,
    stall_ns: FxHashMap<u32, u64>,
    stats: InjectStats,
    trace: TraceHandle,
}

/// Label mixed into every per-decision stream derivation.
const DECISION_LABEL: u64 = 0xFA17;

impl FaultInjector {
    /// Build an injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let root = StreamRng::root(plan.seed);
        FaultInjector {
            plan,
            root,
            attempts: FxHashMap::default(),
            stall_ns: FxHashMap::default(),
            stats: InjectStats::default(),
            trace: TraceHandle::default(),
        }
    }

    /// Install a tracer; non-clean verdicts emit [`TraceEvent::FaultVerdict`]
    /// (and [`TraceEvent::PacketDrop`] when the packet is dropped) stamped
    /// with the sender's rank.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Decide the fate of one transmission. `now_ns` is virtual time when
    /// the caller knows it (DES); the live driver passes `None`.
    pub fn decide(&mut self, pkt: &Packet, now_ns: Option<u64>) -> Verdict {
        let src = pkt.header.src.0;
        let dst = pkt.header.dst.0;
        let attempt = {
            let a = self.attempts.entry((src, dst)).or_insert(0);
            let v = *a;
            *a += 1;
            v
        };
        self.stats.transmissions += 1;
        let mut dropped = false;
        let mut extra_copies = 0u32;
        let mut extra_delay_ns = 0u64;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if !rule.matches(pkt, now_ns, attempt) {
                continue;
            }
            let p = rule.fault.probability();
            let hit = p >= 1.0
                || self
                    .root
                    .derive(&[DECISION_LABEL, i as u64, src as u64, dst as u64, attempt])
                    .chance(p);
            if !hit {
                continue;
            }
            match rule.fault {
                FaultKind::Drop { .. } => dropped = true,
                FaultKind::Duplicate { .. } => extra_copies += 1,
                FaultKind::Delay { extra_ns, .. } => {
                    extra_delay_ns += extra_ns;
                    self.stats.delayed += 1;
                }
                FaultKind::NicStall { stall_ns, .. } => {
                    *self.stall_ns.entry(src).or_insert(0) += stall_ns;
                    self.stats.stalls += 1;
                }
            }
        }
        let copies = if dropped { 0 } else { 1 + extra_copies };
        if dropped {
            self.stats.dropped += 1;
        }
        self.stats.duplicated += u64::from(if dropped { 0 } else { extra_copies });
        let verdict = Verdict {
            copies,
            extra_delay_ns: extra_delay_ns + self.stall_ns.get(&src).copied().unwrap_or(0),
        };
        if verdict != Verdict::clean() {
            self.trace.emit_for(
                src,
                TraceEvent::FaultVerdict {
                    dst,
                    copies: verdict.copies,
                    extra_delay_ns: verdict.extra_delay_ns,
                },
            );
            if verdict.copies == 0 {
                self.trace.emit_for(
                    src,
                    TraceEvent::PacketDrop {
                        dst,
                        kind: pkt.header.kind.label(),
                    },
                );
            }
        }
        verdict
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> InjectStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_gm::{NodeId, PacketHeader};
    use bytes::Bytes;

    fn pkt(src: u32, dst: u32, kind: PacketKind) -> Packet {
        Packet::new(
            PacketHeader {
                src: NodeId(src),
                dst: NodeId(dst),
                kind,
                context: 1,
                tag: 0,
                coll_seq: 0,
                coll_root: 0,
                msg_len: 0,
                wire_seq: 0,
                rel_seq: 0,
            },
            Bytes::new(),
        )
    }

    #[test]
    fn empty_plan_is_clean() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for i in 0..100 {
            assert_eq!(
                inj.decide(&pkt(i % 4, (i + 1) % 4, PacketKind::Eager), Some(0)),
                Verdict::clean()
            );
        }
        assert_eq!(inj.stats().dropped, 0);
    }

    #[test]
    fn decisions_replay_identically() {
        let plan = FaultPlan::uniform_loss(7, 0.3);
        let run = || {
            let mut inj = FaultInjector::new(plan.clone());
            (0..200)
                .map(|i| inj.decide(&pkt(i % 3, 3, PacketKind::Collective), Some(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn decisions_are_independent_of_wall_time_knowledge() {
        // Window-free plans must decide identically whether or not the
        // caller knows virtual time (the DES/live equivalence requirement).
        let plan = FaultPlan::uniform_loss(9, 0.5);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..100 {
            let p = pkt(0, 1, PacketKind::Eager);
            assert_eq!(a.decide(&p, Some(i * 1000)), b.decide(&p, None));
        }
    }

    #[test]
    fn targeted_attempt_rule_hits_exactly_once() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                link: LinkSel::Between(2, 0),
                kinds: KindSel::Any,
                window: None,
                attempt: Some(1),
                fault: FaultKind::Drop { p: 1.0 },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        let hits: Vec<u32> = (0..5)
            .map(|_| inj.decide(&pkt(2, 0, PacketKind::Eager), None).copies)
            .collect();
        assert_eq!(hits, vec![1, 0, 1, 1, 1]);
        // Other links are untouched by the targeted rule.
        assert_eq!(inj.decide(&pkt(0, 2, PacketKind::Eager), None).copies, 1);
    }

    #[test]
    fn window_rules_need_virtual_time() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                link: LinkSel::Any,
                kinds: KindSel::Any,
                window: Some((1_000, 2_000)),
                attempt: None,
                fault: FaultKind::Drop { p: 1.0 },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.decide(&pkt(0, 1, PacketKind::Eager), Some(500)).copies,
            1
        );
        assert_eq!(
            inj.decide(&pkt(0, 1, PacketKind::Eager), Some(1_500))
                .copies,
            0
        );
        assert_eq!(
            inj.decide(&pkt(0, 1, PacketKind::Eager), Some(2_000))
                .copies,
            1
        );
        assert_eq!(inj.decide(&pkt(0, 1, PacketKind::Eager), None).copies, 1);
    }

    #[test]
    fn nic_stall_accumulates_per_source() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                link: LinkSel::From(3),
                kinds: KindSel::Any,
                window: None,
                attempt: Some(0),
                fault: FaultKind::NicStall {
                    p: 1.0,
                    stall_ns: 500,
                },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.decide(&pkt(3, 0, PacketKind::Eager), None)
                .extra_delay_ns,
            500
        );
        // Attempt counters are per directed link, so the first packet on
        // 3 -> 1 triggers a second stall; the lag is per *source* and sums.
        assert_eq!(
            inj.decide(&pkt(3, 1, PacketKind::Eager), None)
                .extra_delay_ns,
            1000
        );
        // Attempt 1 on 3 -> 0 no longer matches, but the accumulated source
        // lag still applies to every later packet from node 3.
        assert_eq!(
            inj.decide(&pkt(3, 0, PacketKind::Eager), None)
                .extra_delay_ns,
            1000
        );
        // Other sources are unaffected.
        assert_eq!(
            inj.decide(&pkt(2, 0, PacketKind::Eager), None)
                .extra_delay_ns,
            0
        );
    }

    #[test]
    fn kind_selector_scopes_rules() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                link: LinkSel::Any,
                kinds: KindSel::Collective,
                window: None,
                attempt: None,
                fault: FaultKind::Drop { p: 1.0 },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.decide(&pkt(0, 1, PacketKind::Eager), None).copies, 1);
        assert_eq!(
            inj.decide(&pkt(0, 1, PacketKind::Collective), None).copies,
            0
        );
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan = FaultPlan::parse(
            "seed=42; drop p=0.01; dup p=0.005 from=3; delay p=0.02 extra_us=50 kind=coll; \
             stall stall_us=200 between=1-0 attempt=2; drop window_us=10..20",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0].fault, FaultKind::Drop { p: 0.01 });
        assert_eq!(plan.rules[1].link, LinkSel::From(3));
        assert_eq!(
            plan.rules[2].fault,
            FaultKind::Delay {
                p: 0.02,
                extra_ns: 50_000
            }
        );
        assert_eq!(plan.rules[2].kinds, KindSel::Collective);
        assert_eq!(plan.rules[3].link, LinkSel::Between(1, 0));
        assert_eq!(plan.rules[3].attempt, Some(2));
        assert_eq!(plan.rules[4].window, Some((10_000, 20_000)));
    }

    #[test]
    fn parse_rejects_junk_with_a_reason() {
        for bad in [
            "warp p=0.1",
            "drop q=0.1",
            "drop p=abc",
            "delay p=0.1",
            "seed=xyz",
            "drop between=1",
            "drop window_us=5",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.starts_with("fault plan:"), "{bad}: {err}");
        }
    }

    /// Every spec must fail with a message that names `key`.
    fn assert_rejected(key: &str, specs: &[&str]) {
        for spec in specs {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(
                err.starts_with("fault plan:") && err.contains(key),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn parse_rejects_probabilities_outside_the_unit_interval() {
        assert_rejected(
            "p",
            &[
                "drop p=1.5",
                "dup p=-0.1",
                "drop p=NaN",
                "delay p=inf extra_us=1",
            ],
        );
        for edge in ["drop p=0", "drop p=1"] {
            assert!(FaultPlan::parse(edge).is_ok(), "{edge}");
        }
    }

    #[test]
    fn parse_rejects_negative_or_non_finite_extra_us() {
        assert_rejected(
            "extra_us",
            &[
                "delay extra_us=-5",
                "delay extra_us=inf",
                "delay extra_us=NaN",
            ],
        );
    }

    #[test]
    fn parse_rejects_negative_or_non_finite_stall_us() {
        assert_rejected(
            "stall_us",
            &[
                "stall stall_us=-0.5",
                "stall stall_us=-inf",
                "stall stall_us=nan",
            ],
        );
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let plan =
            FaultPlan::parse("# lossy scenario\n\nseed=5\ndrop p=0.5 # tail comment\n").unwrap();
        assert_eq!(plan.seed, 5);
        assert_eq!(plan.rules.len(), 1);
    }
}
