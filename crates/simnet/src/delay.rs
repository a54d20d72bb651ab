//! The latency model of the simulated [`Network`](crate::Network).
//!
//! A [`DelayProfile`] holds every message for
//! `1 + base + per-link schedule + seeded jitter` ticks before it reaches
//! the recipient's inbox. The delay draw is a pure function of the
//! profile seed and a per-message sequence number, so a run is
//! bit-replayable — asynchrony here is a *parameter*, not a source of
//! nondeterminism. [`DelayProfile::synchronous`], the network's
//! default, delivers everything on the next tick: the paper's
//! synchronous rounds.

use crate::faults::splitmix64;

/// The latency model of a [`Network`](crate::Network): every message
/// waits `1 + base + U{0..=jitter}` ticks, the jitter term drawn from a
/// seeded deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayProfile {
    base: u64,
    jitter: u64,
    seed: u64,
}

impl DelayProfile {
    /// Next-tick delivery: the paper's synchronous rounds.
    pub fn synchronous() -> Self {
        Self::fixed(0)
    }

    /// Every message waits a fixed `base` extra ticks.
    pub fn fixed(base: u64) -> Self {
        DelayProfile {
            base,
            jitter: 0,
            seed: 0,
        }
    }

    /// Every message waits `base` plus a seeded draw from `0..=jitter`
    /// extra ticks.
    pub fn jittered(base: u64, jitter: u64, seed: u64) -> Self {
        DelayProfile { base, jitter, seed }
    }

    /// The largest extra delay this profile can assign.
    pub fn max_extra_delay(&self) -> u64 {
        self.base + self.jitter
    }

    /// The extra delay for the message with sequence number `seq`.
    pub(crate) fn draw(&self, seq: u64) -> u64 {
        if self.jitter == 0 {
            self.base
        } else {
            self.base + splitmix64(self.seed ^ seq) % (self.jitter + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::network::{Network, NodeId, Payload};
    use crate::transport::Transport;

    #[test]
    fn synchronous_profile_delivers_next_tick_like_lockstep() {
        let mut net: Network<u64> = Network::new(3).with_delay(DelayProfile::synchronous());
        net.send(NodeId(0), NodeId(1), 42);
        net.broadcast(NodeId(2), 7);
        assert!(!net.is_quiescent());
        assert_eq!(net.step(), 3);
        let inbox = net.take_inbox(NodeId(1));
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].payload, 42);
        assert!(inbox[1].broadcast);
        assert_eq!(net.stats().point_to_point, 3);
        assert_eq!(net.stats().broadcasts, 1);
    }

    #[test]
    fn fixed_delay_holds_messages_for_base_extra_ticks() {
        let mut net: Network<u64> = Network::new(2).with_delay(DelayProfile::fixed(2));
        net.send(NodeId(0), NodeId(1), 5);
        assert_eq!(net.step(), 0, "tick 1: still held");
        assert_eq!(net.step(), 0, "tick 2: still held");
        assert_eq!(net.step(), 1, "tick 3: due");
        assert_eq!(net.take_inbox(NodeId(1)).len(), 1);
        assert!(net.is_quiescent());
    }

    #[test]
    fn per_link_schedule_adds_to_the_profile() {
        let plan = FaultPlan::none(3).delay_link(NodeId(0), NodeId(1), 2);
        let mut net: Network<u64> = Network::with_faults(3, plan);
        net.send(NodeId(0), NodeId(1), 1); // delayed link: due at tick 3
        net.send(NodeId(0), NodeId(2), 2); // plain link: due at tick 1
        net.step();
        assert_eq!(net.take_inbox(NodeId(2)).len(), 1);
        assert!(net.take_inbox(NodeId(1)).is_empty());
        net.step();
        net.step();
        assert_eq!(net.take_inbox(NodeId(1)).len(), 1);
    }

    #[test]
    fn jitter_is_bounded_and_replayable() {
        let profile = DelayProfile::jittered(1, 3, 99);
        let run = |profile: DelayProfile| {
            let mut net: Network<u64> = Network::new(2).with_delay(profile);
            for k in 0..20 {
                net.send(NodeId(0), NodeId(1), k);
            }
            let mut arrivals = Vec::new();
            for tick in 0..12 {
                net.step();
                for msg in net.take_inbox(NodeId(1)) {
                    arrivals.push((tick, msg.payload));
                }
            }
            assert!(net.is_quiescent(), "all messages within base+jitter ticks");
            arrivals
        };
        let first = run(profile);
        assert_eq!(first, run(profile), "same seed, same arrival schedule");
        for (tick, _) in &first {
            assert!(
                (1..=4).contains(tick),
                "arrival tick {tick} outside 1 + base..=base+jitter"
            );
        }
        assert!(
            first != run(DelayProfile::jittered(1, 3, 100)),
            "different seed, different schedule"
        );
    }

    #[test]
    fn inbox_shuffle_permutes_within_a_recipient_only() {
        let mut plain: Network<u64> = Network::new(3);
        let mut shuffled: Network<u64> = Network::new(3).with_inbox_shuffle(7);
        for net in [&mut plain, &mut shuffled] {
            for k in 0..8 {
                net.send(NodeId(0), NodeId(1), k);
                net.send(NodeId(0), NodeId(2), 100 + k);
            }
            net.step();
        }
        let base1: Vec<u64> = plain
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        let mix1: Vec<u64> = shuffled
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        let mut sorted = mix1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base1, "shuffle is a permutation of the same set");
        assert_ne!(mix1, base1, "seed 7 actually permutes this batch");
        let mix2: Vec<u64> = shuffled
            .take_inbox(NodeId(2))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        let mut sorted2 = mix2.clone();
        sorted2.sort_unstable();
        assert_eq!(sorted2, (100..108).collect::<Vec<u64>>());
    }

    /// Regression test for the periodic-drop drift bug: the drop
    /// schedule once advanced per *delivered* message, so jitter (which
    /// permutes delivery order relative to enqueue order) made the same
    /// [`FaultPlan`] drop different logical messages than synchronous
    /// delivery. Pinning the schedule to the enqueue-time sequence
    /// number makes the selected set profile-invariant.
    #[test]
    fn periodic_drops_select_the_same_messages_as_lockstep_under_jitter() {
        let n = 4;
        let ticks = 4u64;
        let surviving = |net: &mut dyn FnMut(NodeId, NodeId, u64)| {
            // Same traffic pattern on every profile: each tick, every
            // ordered pair exchanges one uniquely-numbered message.
            let mut payload = 0;
            for _ in 0..ticks {
                for from in 0..n {
                    for to in 0..n {
                        if from != to {
                            net(NodeId(from), NodeId(to), payload);
                            payload += 1;
                        }
                    }
                }
            }
        };

        let mut lockstep: Network<u64> = Network::with_faults(n, FaultPlan::none(n).drop_every(3));
        {
            let mut sends = 0;
            let mut send = |from, to, p| {
                // Re-create the per-tick cadence: step after each tick's
                // batch of n·(n−1) sends.
                lockstep.send(from, to, p);
                sends += 1;
                if sends % (n * (n - 1)) == 0 {
                    lockstep.step();
                }
            };
            surviving(&mut send);
        }
        let mut lockstep_delivered: Vec<u64> = (0..n)
            .flat_map(|node| lockstep.take_inbox(NodeId(node)))
            .map(|d| d.payload)
            .collect();
        lockstep_delivered.sort_unstable();

        let mut delayed: Network<u64> = Network::with_faults(n, FaultPlan::none(n).drop_every(3))
            .with_delay(DelayProfile::jittered(0, 3, 0xBEEF));
        {
            let mut sends = 0;
            let mut send = |from, to, p| {
                delayed.send(from, to, p);
                sends += 1;
                if sends % (n * (n - 1)) == 0 {
                    delayed.step();
                }
            };
            surviving(&mut send);
        }
        let mut jitter_delivered: Vec<u64> = Vec::new();
        loop {
            for node in 0..n {
                for msg in delayed.take_inbox(NodeId(node)) {
                    jitter_delivered.push(msg.payload);
                }
            }
            if delayed.is_quiescent() {
                break;
            }
            delayed.step();
        }
        jitter_delivered.sort_unstable();

        assert_eq!(
            jitter_delivered, lockstep_delivered,
            "a fault plan must drop the same logical messages on every profile"
        );
        assert_eq!(delayed.stats().dropped, lockstep.stats().dropped);
    }

    #[test]
    fn next_due_reports_inboxes_then_earliest_held_due() {
        let plan = FaultPlan::none(3).delay_link(NodeId(0), NodeId(2), 4);
        let mut net: Network<u64> =
            Network::with_faults(3, plan).with_delay(DelayProfile::fixed(1));
        assert_eq!(net.next_due(), None);
        net.send(NodeId(0), NodeId(1), 1); // due at tick 2
        net.send(NodeId(0), NodeId(2), 2); // due at tick 6
        assert_eq!(net.next_due(), Some(2));
        net.step();
        net.step();
        assert_eq!(net.next_due(), Some(2), "undrained inbox is due now");
        net.take_inbox(NodeId(1));
        assert_eq!(net.next_due(), Some(6), "next event is the held message");
        net.advance_to(6);
        net.take_inbox(NodeId(2));
        assert_eq!(net.next_due(), None);
    }

    /// `advance_to` must be indistinguishable from stepping — including
    /// the round-seeded inbox shuffle and enqueue-order drop schedules,
    /// both of which read the round counter at delivery time.
    #[test]
    fn advance_to_matches_repeated_steps_with_jitter_shuffle_and_drops() {
        let build = || -> Network<u64> {
            Network::with_faults(3, FaultPlan::none(3).drop_every(4))
                .with_delay(DelayProfile::jittered(1, 5, 0xABCD))
                .with_inbox_shuffle(9)
        };
        let mut stepped = build();
        let mut jumped = build();
        for net in [&mut stepped, &mut jumped] {
            for k in 0..12 {
                net.send(NodeId(0), NodeId(1), k);
                net.send(NodeId(2), NodeId(1), 100 + k);
                net.send(NodeId(0), NodeId(2), 200 + k);
            }
        }
        let mut total = 0;
        for _ in 0..10 {
            total += stepped.step();
        }
        assert_eq!(jumped.advance_to(10), total);
        assert_eq!(jumped.round(), stepped.round());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.metrics(), stepped.metrics());
        for node in 0..3 {
            assert_eq!(
                jumped.take_inbox(NodeId(node)),
                stepped.take_inbox(NodeId(node)),
                "inbox {node} diverged"
            );
        }
    }

    /// The delayed-crash path can end a run with traffic still held:
    /// `in_flight` must report it rather than underflow.
    #[test]
    fn in_flight_counts_messages_still_held_at_run_end() {
        let plan = FaultPlan::none(3).crash_at(NodeId(1), 2);
        let mut net: Network<u64> =
            Network::with_faults(3, plan).with_delay(DelayProfile::fixed(4));
        net.send(NodeId(0), NodeId(1), 1);
        net.send(NodeId(2), NodeId(1), 2);
        net.send(NodeId(0), NodeId(2), 3);
        net.step();
        net.step();
        // "Run end": every message is still in flight (due tick 5).
        assert!(!net.is_quiescent());
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().dropped, 0);
        assert_eq!(net.stats().in_flight(), 3);
    }

    #[test]
    fn metrics_record_links_delays_and_drop_causes() {
        use dmw_obs::Key;

        let plan = FaultPlan::none(3)
            .crash_at(NodeId(1), 0)
            .drop_link(NodeId(0), NodeId(2));
        let mut net: Network<u64> =
            Network::with_faults(3, plan).with_delay(DelayProfile::fixed(1));
        net.send(NodeId(0), NodeId(1), 1); // recipient crashed
        net.send(NodeId(1), NodeId(2), 2); // sender crashed
        net.send(NodeId(0), NodeId(2), 3); // dropped link
        net.send(NodeId(2), NodeId(0), 4); // delivered
        net.step();
        net.step();
        let m = net.metrics();
        assert_eq!(m.counter(&Key::named("link_messages").agent(0).peer(1)), 1);
        assert_eq!(m.counter(&Key::named("link_bytes").agent(2).peer(0)), 8);
        assert_eq!(m.counter_total("link_messages"), 4);
        assert_eq!(m.counter(&Key::named("drop_sender_crashed")), 1);
        assert_eq!(m.counter(&Key::named("drop_recipient_crashed")), 1);
        assert_eq!(m.counter(&Key::named("drop_link")), 1);
        assert_eq!(m.counter(&Key::named("drop_periodic")), 0);
        let h = m.histogram(&Key::named("delay_ticks")).expect("series");
        assert_eq!(h.total(), 4, "every enqueue observes its drawn latency");
        // fixed(1): all four messages drew a 2-tick delivery latency.
        assert_eq!(h.counts.get(1), Some(&4));
    }

    /// A toy payload marking odd values as control traffic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Frame(u64);

    impl Payload for Frame {
        fn size_bytes(&self) -> usize {
            8
        }

        fn is_control(&self) -> bool {
            self.0 % 2 == 1
        }
    }

    #[test]
    fn ack_path_and_reorder_schedules_mirror_lockstep() {
        // Both knobs at once on the synchronous profile: the ack-path
        // schedule drops only control frames, and the reordered
        // messages land a tick late.
        let plan = FaultPlan::none(2).drop_acks_every(2).reorder_every(5);
        let mut net: Network<Frame> = Network::with_faults(2, plan);
        for f in (1..=10).map(Frame) {
            net.send(NodeId(0), NodeId(1), f);
        }
        let mut seen = Vec::new();
        for tick in 1..=3u64 {
            net.step();
            for msg in net.take_inbox(NodeId(1)) {
                seen.push((tick, msg.payload.0));
            }
        }
        assert!(net.is_quiescent());
        // Control slots: frames 1,3,5,7,9 → #1..#5; even slots drop
        // (frames 3, 7). Reorder slots: seqs 5 and 10 → Frames 5 and 10
        // land a tick late.
        let expected: Vec<(u64, u64)> = vec![
            (1, 1),
            (1, 2),
            (1, 4),
            (1, 6),
            (1, 8),
            (1, 9),
            (2, 5),
            (2, 10),
        ];
        assert_eq!(seen, expected);
        assert_eq!(net.metrics().counter_total("drop_ack_path"), 2);
        assert_eq!(net.stats().dropped, 2);
        assert_eq!(net.stats().delivered, 8);
    }

    #[test]
    fn reordered_messages_record_their_penalized_latency() {
        use dmw_obs::Key;

        let plan = FaultPlan::none(2).reorder_every(3);
        let mut net: Network<u64> = Network::with_faults(2, plan);
        for k in 0..3 {
            net.send(NodeId(0), NodeId(1), k);
        }
        let h = net
            .metrics()
            .histogram(&Key::named("delay_ticks"))
            .expect("series");
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts.get(0), Some(&2), "two on-time one-tick arrivals");
        assert_eq!(h.counts.get(1), Some(&1), "one two-tick reordered arrival");
    }

    #[test]
    fn crash_and_drop_semantics_mirror_lockstep() {
        let plan = FaultPlan::none(3)
            .crash_at(NodeId(1), 0)
            .drop_link(NodeId(0), NodeId(2));
        let mut net: Network<u64> = Network::with_faults(3, plan);
        net.send(NodeId(0), NodeId(1), 1); // to crashed node
        net.send(NodeId(1), NodeId(2), 2); // from crashed node
        net.send(NodeId(0), NodeId(2), 3); // dropped link
        net.send(NodeId(2), NodeId(0), 4); // unaffected
        net.step();
        assert!(net.take_inbox(NodeId(1)).is_empty());
        assert!(net.take_inbox(NodeId(2)).is_empty());
        assert_eq!(net.take_inbox(NodeId(0)).len(), 1);
        assert_eq!(net.stats().dropped, 3);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().in_flight(), 0);
    }
}
