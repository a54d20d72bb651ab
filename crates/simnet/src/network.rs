//! The simulated network: private point-to-point channels, broadcast as
//! `n − 1` unicasts, and per-message delivery timing.

use crate::delay::DelayProfile;
use crate::faults::{splitmix64, FaultPlan};
use crate::stats::NetworkStats;
use crate::transport::Transport;
use dmw_obs::{Key, MetricsSink, MetricsSnapshot, DELAY_TICK_BUCKETS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifier of a network node (agent), `0`-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Message destination: one peer or everyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Recipient {
    /// A single peer over the private channel.
    Unicast(NodeId),
    /// Every other node (implemented as `n − 1` unicasts, per Theorem 11).
    Broadcast,
}

/// Payload size accounting, used for the byte counters of
/// [`NetworkStats`]. Implementations should return the approximate wire
/// size of the message.
pub trait Payload {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> usize;

    /// `true` for pure reverse-path control traffic (acknowledgments,
    /// gap repair requests). The asymmetric ack-path loss schedule
    /// ([`FaultPlan::drop_acks_every`]) applies only to transmissions
    /// that report `true` here, so a plan can drop acks while data
    /// keeps flowing. Defaults to `false`: plain payloads are data.
    fn is_control(&self) -> bool {
        false
    }
}

impl Payload for u64 {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn size_bytes(&self) -> usize {
        self.iter().map(Payload::size_bytes).sum()
    }
}

/// A message delivered into a node's inbox.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivered<M> {
    /// The sender.
    pub from: NodeId,
    /// `true` when the message arrived via the broadcast channel.
    pub broadcast: bool,
    /// The message body.
    pub payload: M,
}

/// Why a transmission was lost. Variant order mirrors the checking
/// precedence of [`classify_loss`] (sender crash before recipient crash,
/// then permanent link drop, transient partition, flap, periodic
/// schedule, and seeded probabilistic loss last), so per-cause metrics
/// attribute each loss identically regardless of the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DropCause {
    /// The sender was crashed at the tick it sent.
    SenderCrashed,
    /// The recipient was crashed when the message would have landed.
    RecipientCrashed,
    /// The directed link is configured to drop everything.
    Link,
    /// A transient-partition window covered the send round.
    Transient,
    /// The link's flap schedule was in its dead phase at the send round.
    Flapping,
    /// The asymmetric ack-path schedule claimed this control
    /// transmission (data on the same link is untouched).
    AckPath,
    /// The periodic-drop schedule claimed this transmission.
    Periodic,
    /// The seeded Bernoulli schedule claimed this transmission.
    Probabilistic,
}

impl DropCause {
    fn metric(self) -> &'static str {
        match self {
            DropCause::SenderCrashed => "drop_sender_crashed",
            DropCause::RecipientCrashed => "drop_recipient_crashed",
            DropCause::Link => "drop_link",
            DropCause::Transient => "drop_transient",
            DropCause::Flapping => "drop_flapping",
            DropCause::AckPath => "drop_ack_path",
            DropCause::Periodic => "drop_periodic",
            DropCause::Probabilistic => "drop_probabilistic",
        }
    }
}

/// The fault-attribution chain. `seq` is the message's *enqueue-order*
/// sequence number (1-based), which pins the periodic and probabilistic
/// drop schedules to logical messages rather than delivery order — the
/// transport-invariance contract of
/// [`FaultPlan::is_periodically_dropped`] and
/// [`FaultPlan::is_probabilistically_dropped`]. The round-keyed
/// schedules (transient windows, flaps) are evaluated against
/// `sent_round` for the same reason: a message is lost iff the link was
/// down when it was *sent*, however long it then spends in flight.
/// `control_seq` is `Some` with the transmission's 1-based position in
/// the *control-only* enqueue order when the payload reported
/// [`Payload::is_control`]; the asymmetric ack-path schedule counts
/// only those, so it thins acknowledgments at a fixed rate regardless
/// of how much data shares the wire.
fn classify_loss(
    faults: &FaultPlan,
    from: NodeId,
    to: NodeId,
    sent_round: u64,
    recv_round: u64,
    seq: u64,
    control_seq: Option<u64>,
) -> Option<DropCause> {
    if faults.is_crashed(from, sent_round) {
        Some(DropCause::SenderCrashed)
    } else if faults.is_crashed(to, recv_round) {
        Some(DropCause::RecipientCrashed)
    } else if faults.is_link_dropped(from, to) {
        Some(DropCause::Link)
    } else if faults.is_transiently_dropped(from, to, sent_round) {
        Some(DropCause::Transient)
    } else if faults.is_flapped_down(from, to, sent_round) {
        Some(DropCause::Flapping)
    } else if control_seq.is_some_and(|k| faults.is_ack_path_dropped(k)) {
        Some(DropCause::AckPath)
    } else if faults.is_periodically_dropped(seq) {
        Some(DropCause::Periodic)
    } else if faults.is_probabilistically_dropped(seq) {
        Some(DropCause::Probabilistic)
    } else {
        None
    }
}

/// Records the per-link counters and the delivery-delay histogram for
/// one enqueued transmission. `delivery_ticks` is the logical latency
/// the message was assigned (`1` on the synchronous profile).
fn record_enqueue(
    metrics: &mut MetricsSnapshot,
    from: NodeId,
    to: NodeId,
    bytes: u64,
    delivery_ticks: u64,
) {
    let link = Key::named("link_messages")
        .agent(from.0 as u32)
        .peer(to.0 as u32);
    metrics.incr(link, 1);
    let link_bytes = Key::named("link_bytes")
        .agent(from.0 as u32)
        .peer(to.0 as u32);
    metrics.incr(link_bytes, bytes);
    metrics.observe(
        Key::named("delay_ticks"),
        DELAY_TICK_BUCKETS,
        delivery_ticks,
    );
}

/// The traffic falling due on one tick. A lost transmission leaves only
/// its cause, so its payload is never stored (or, for a broadcast,
/// cloned); survivors wait as `(recipient, delivery)` in enqueue order.
#[derive(Debug)]
struct Bucket<M> {
    drops: Vec<DropCause>,
    arrivals: Vec<(NodeId, Delivered<M>)>,
}

impl<M> Default for Bucket<M> {
    fn default() -> Self {
        Bucket {
            drops: Vec::new(),
            arrivals: Vec::new(),
        }
    }
}

/// A network of `n` nodes — the simulator's [`Transport`].
///
/// By default delivery is synchronous: everything sent in round `r`
/// becomes visible in round `r + 1`, the implicit barrier of protocol
/// step II.4. [`Network::with_delay`] holds each message for
/// `1 + profile draw + per-link schedule` ticks instead, modelling
/// asynchrony without giving up replayability, and
/// [`Network::with_inbox_shuffle`] permutes same-tick arrivals per
/// recipient.
///
/// A [`FaultPlan`] never changes during a run, so every input to the
/// loss decision (send round, landing round, enqueue sequence numbers)
/// is known at send time: each transmission is classified when it is
/// enqueued and parked in the bucket of its due tick. Traffic counters
/// follow one convention (`point_to_point`/`bytes` at enqueue,
/// `delivered`/`dropped` on the due tick), so Theorem 11's cost
/// accounting is the same under every timing model.
#[derive(Debug)]
pub struct Network<M> {
    n: usize,
    round: u64,
    /// In-flight traffic keyed by due tick; every key exceeds `round`.
    in_flight: BTreeMap<u64, Bucket<M>>,
    inboxes: Vec<VecDeque<Delivered<M>>>,
    stats: NetworkStats,
    metrics: MetricsSnapshot,
    faults: FaultPlan,
    profile: DelayProfile,
    shuffle_seed: Option<u64>,
    /// Enqueue-order sequence number of the latest transmission.
    seq: u64,
    /// Control-only enqueue counter feeding the ack-path drop schedule.
    control_seq: u64,
}

/// The synchronous [`Network`] under its former name, kept because the
/// benchmark driver (`dmwbench/src/workload.rs`) builds its transport
/// with `LockstepTransport::with_faults(n, plan)`.
pub type LockstepTransport<M> = Network<M>;

impl<M: Payload + Clone> Network<M> {
    /// Creates a fault-free synchronous network of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_faults(n, FaultPlan::none(n))
    }

    /// Creates a synchronous network with a fault schedule (whose
    /// [`FaultPlan::link_delay`] entries add to the delivery latency).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_faults(n: usize, faults: FaultPlan) -> Self {
        assert!(n > 0, "network needs at least one node");
        Network {
            n,
            round: 0,
            in_flight: BTreeMap::new(),
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            stats: NetworkStats::default(),
            metrics: MetricsSnapshot::default(),
            faults,
            profile: DelayProfile::synchronous(),
            shuffle_seed: None,
            seq: 0,
            control_seq: 0,
        }
    }

    /// Replaces synchronous delivery with the latency model `profile`.
    pub fn with_delay(mut self, profile: DelayProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Additionally permutes each recipient's same-tick arrivals with a
    /// seeded Fisher–Yates shuffle — delivery-order fuzzing that stays
    /// bit-replayable.
    pub fn with_inbox_shuffle(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Counts, times and classifies one transmission. Returns its due
    /// tick when it survives; a lost one is tallied in its due bucket
    /// and `None` tells the caller not to store (or clone) the payload.
    fn admit(&mut self, from: NodeId, to: NodeId, bytes: u64, control: bool) -> Option<u64> {
        self.stats.point_to_point += 1;
        self.stats.bytes += bytes;
        self.seq += 1;
        let control_seq = control.then(|| {
            self.control_seq += 1;
            self.control_seq
        });
        let delay = self.profile.draw(self.seq) + self.faults.link_delay_or_zero(from, to);
        let reorder = u64::from(self.faults.is_reordered(self.seq));
        record_enqueue(&mut self.metrics, from, to, bytes, 1 + delay + reorder);
        let due = self.round + 1 + delay + reorder;
        // Loss is judged at the landing round the message would have met
        // without the reorder penalty.
        let landing = self.round + delay;
        let cause = classify_loss(
            &self.faults,
            from,
            to,
            self.round,
            landing,
            self.seq,
            control_seq,
        );
        match cause {
            Some(cause) => {
                self.bucket(due).drops.push(cause);
                None
            }
            None => Some(due),
        }
    }

    fn bucket(&mut self, due: u64) -> &mut Bucket<M> {
        self.in_flight.entry(due).or_default()
    }
}

impl<M: Payload + Clone> Transport<M> for Network<M> {
    fn nodes(&self) -> usize {
        self.n
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        assert!(from.0 < self.n && to.0 < self.n, "node out of range");
        assert_ne!(from, to, "self-sends are local state, not messages");
        let bytes = payload.size_bytes() as u64;
        if let Some(due) = self.admit(from, to, bytes, payload.is_control()) {
            let delivery = Delivered {
                from,
                broadcast: false,
                payload,
            };
            self.bucket(due).arrivals.push((to, delivery));
        }
    }

    /// Each of the `n − 1` transmissions gets its own delay draw and
    /// loss decision; only survivors clone the payload.
    fn broadcast(&mut self, from: NodeId, payload: M) {
        assert!(from.0 < self.n, "node out of range");
        self.stats.broadcasts += 1;
        let bytes = payload.size_bytes() as u64;
        let control = payload.is_control();
        for to in (0..self.n).filter(|&to| to != from.0).map(NodeId) {
            if let Some(due) = self.admit(from, to, bytes, control) {
                let delivery = Delivered {
                    from,
                    broadcast: true,
                    payload: payload.clone(),
                };
                self.bucket(due).arrivals.push((to, delivery));
            }
        }
    }

    fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<M>> {
        assert!(node.0 < self.n, "node out of range");
        self.inboxes[node.0].drain(..).collect()
    }

    /// Pops the bucket due next tick: tallies its losses, then moves its
    /// survivors into inboxes in enqueue order (unless shuffled).
    fn step(&mut self) -> u64 {
        let next = self.round + 1;
        let mut delivered = 0;
        if let Some(Bucket {
            drops,
            mut arrivals,
        }) = self.in_flight.remove(&next)
        {
            self.stats.dropped += drops.len() as u64;
            for cause in drops {
                self.metrics.incr(Key::named(cause.metric()), 1);
            }
            if let Some(seed) = self.shuffle_seed {
                shuffle_per_recipient(&mut arrivals, self.n, seed, self.round);
            }
            delivered = arrivals.len() as u64;
            for (to, delivery) in arrivals {
                self.inboxes[to.0].push_back(delivery);
            }
        }
        self.stats.delivered += delivered;
        self.stats.rounds += 1;
        self.round = next;
        delivered
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    fn is_quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.inboxes.iter().all(VecDeque::is_empty)
    }

    /// *Now* while any inbox holds undrained deliveries, otherwise the
    /// earliest due tick (every key exceeds the current round — `step`
    /// already popped everything at or before it), `None` when
    /// quiescent.
    fn next_due(&self) -> Option<u64> {
        if self.inboxes.iter().any(|q| !q.is_empty()) {
            return Some(self.round);
        }
        self.in_flight.keys().next().copied()
    }

    /// Stretches with nothing due collapse into a constant-time
    /// round/statistics jump; every round on which something falls due
    /// runs a real `step`, so delivery order, the round-seeded inbox
    /// shuffle and the loss tallies are bit-identical to stepping.
    fn advance_to(&mut self, target: u64) -> u64 {
        let mut delivered = 0;
        while self.round < target {
            // A bucket due at tick `d` is popped by the step taken at
            // round `d − 1`; rounds before that are dead air.
            let idle_until = match self.in_flight.keys().next() {
                Some(&due) => (due - 1).min(target),
                None => target,
            };
            self.stats.rounds += idle_until - self.round;
            self.round = idle_until;
            if self.round < target {
                delivered += self.step();
            }
        }
        delivered
    }
}

/// Seeded Fisher–Yates over each recipient's slots among one tick's
/// arrivals. Only positions belonging to the same recipient swap, so
/// cross-recipient structure is untouched. Slots are grouped in one
/// pass, keeping a step linear in its arrivals.
fn shuffle_per_recipient<M>(
    arrivals: &mut [(NodeId, Delivered<M>)],
    n: usize,
    seed: u64,
    round: u64,
) {
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, (to, _)) in arrivals.iter().enumerate() {
        slots[to.0].push(i);
    }
    for (node, slots) in slots.iter().enumerate() {
        if slots.len() < 2 {
            continue;
        }
        let mut state = splitmix64(seed ^ (round << 20) ^ node as u64);
        for i in (1..slots.len()).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            arrivals.swap(slots[i], slots[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_delivers_next_round() {
        let mut net: Network<u64> = Network::new(2);
        net.send(NodeId(0), NodeId(1), 42);
        assert!(net.take_inbox(NodeId(1)).is_empty(), "not yet delivered");
        assert!(!net.is_quiescent());
        assert_eq!(net.step(), 1);
        let inbox = net.take_inbox(NodeId(1));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].payload, 42);
        assert_eq!(inbox[0].from, NodeId(0));
        assert!(!inbox[0].broadcast);
        assert!(net.is_quiescent());
    }

    #[test]
    fn broadcast_reaches_everyone_else_and_counts_n_minus_1() {
        let mut net: Network<u64> = Network::new(5);
        net.broadcast(NodeId(2), 7);
        net.step();
        for i in 0..5 {
            let inbox = net.take_inbox(NodeId(i));
            if i == 2 {
                assert!(inbox.is_empty(), "no self-delivery");
            } else {
                assert_eq!(inbox.len(), 1);
                assert!(inbox[0].broadcast);
            }
        }
        assert_eq!(net.stats().point_to_point, 4);
        assert_eq!(net.stats().broadcasts, 1);
        assert_eq!(net.stats().bytes, 4 * 8);
    }

    #[test]
    fn crashed_node_traffic_is_dropped() {
        let plan = FaultPlan::none(3).crash_at(NodeId(1), 0);
        let mut net: Network<u64> = Network::with_faults(3, plan);
        net.send(NodeId(0), NodeId(1), 1); // to crashed
        net.send(NodeId(1), NodeId(2), 2); // from crashed
        net.send(NodeId(0), NodeId(2), 3); // unaffected
        net.step();
        assert!(net.take_inbox(NodeId(1)).is_empty());
        let inbox2 = net.take_inbox(NodeId(2));
        assert_eq!(inbox2.len(), 1);
        assert_eq!(inbox2[0].payload, 3);
        assert_eq!(net.stats().dropped, 2);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().in_flight(), 0);
    }

    #[test]
    fn crash_in_future_round_spares_earlier_traffic() {
        let plan = FaultPlan::none(2).crash_at(NodeId(0), 1);
        let mut net: Network<u64> = Network::with_faults(2, plan);
        net.send(NodeId(0), NodeId(1), 1);
        net.step(); // round 0: delivered
        assert_eq!(net.take_inbox(NodeId(1)).len(), 1);
        net.send(NodeId(0), NodeId(1), 2);
        net.step(); // round 1: node 0 crashed
        assert!(net.take_inbox(NodeId(1)).is_empty());
    }

    #[test]
    fn dropped_link_loses_messages_one_way() {
        let plan = FaultPlan::none(2).drop_link(NodeId(0), NodeId(1));
        let mut net: Network<u64> = Network::with_faults(2, plan);
        net.send(NodeId(0), NodeId(1), 1);
        net.send(NodeId(1), NodeId(0), 2);
        net.step();
        assert!(net.take_inbox(NodeId(1)).is_empty());
        assert_eq!(net.take_inbox(NodeId(0)).len(), 1);
    }

    #[test]
    fn inbox_preserves_arrival_order() {
        let mut net: Network<u64> = Network::new(3);
        net.send(NodeId(1), NodeId(0), 10);
        net.send(NodeId(2), NodeId(0), 20);
        net.step();
        net.send(NodeId(1), NodeId(0), 30);
        net.step();
        let payloads: Vec<u64> = net
            .take_inbox(NodeId(0))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        assert_eq!(payloads, vec![10, 20, 30]);
    }

    #[test]
    fn rounds_advance() {
        let mut net: Network<u64> = Network::new(2);
        assert_eq!(net.round(), 0);
        net.step();
        net.step();
        assert_eq!(net.round(), 2);
        assert_eq!(net.stats().rounds, 2);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let mut net: Network<u64> = Network::new(2);
        net.send(NodeId(0), NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_send_panics() {
        let mut net: Network<u64> = Network::new(2);
        net.send(NodeId(0), NodeId(5), 1);
    }

    #[test]
    fn payload_sizes_accumulate() {
        let mut net: Network<Vec<u64>> = Network::new(2);
        net.send(NodeId(0), NodeId(1), vec![1, 2, 3]);
        assert_eq!(net.stats().bytes, 24);
    }

    /// A toy payload that marks odd values as control traffic, for the
    /// ack-path tests.
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
    fn ack_path_schedule_drops_control_but_not_data() {
        let plan = FaultPlan::none(2).drop_acks_every(1);
        let mut net: Network<Frame> = Network::with_faults(2, plan);
        net.send(NodeId(0), NodeId(1), Frame(2)); // data
        net.send(NodeId(0), NodeId(1), Frame(3)); // control: dropped
        net.send(NodeId(0), NodeId(1), Frame(4)); // data
        net.step();
        let payloads: Vec<Frame> = net
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        assert_eq!(payloads, vec![Frame(2), Frame(4)]);
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.metrics().counter_total("drop_ack_path"), 1);
    }

    #[test]
    fn ack_path_counter_skips_data_transmissions() {
        // Every *second* control message drops; data in between must not
        // advance the control counter.
        let plan = FaultPlan::none(2).drop_acks_every(2);
        let mut net: Network<Frame> = Network::with_faults(2, plan);
        for v in [1, 2, 2, 3, 2, 5] {
            net.send(NodeId(0), NodeId(1), Frame(v));
        }
        net.step();
        // Control slots: Frame(1)=#1 kept, Frame(3)=#2 dropped,
        // Frame(5)=#3 kept.
        let payloads: Vec<u64> = net
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload.0)
            .collect();
        assert_eq!(payloads, vec![1, 2, 2, 2, 5]);
        assert_eq!(net.metrics().counter_total("drop_ack_path"), 1);
    }

    #[test]
    fn reorder_defers_selected_messages_one_round() {
        let plan = FaultPlan::none(3).reorder_every(2);
        let mut net: Network<u64> = Network::with_faults(3, plan);
        net.send(NodeId(0), NodeId(1), 10); // seq 1: on time
        net.send(NodeId(2), NodeId(1), 20); // seq 2: deferred
        net.send(NodeId(0), NodeId(1), 30); // seq 3: on time
        assert_eq!(net.step(), 2);
        let payloads: Vec<u64> = net
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        assert_eq!(payloads, vec![10, 30]);
        assert!(!net.is_quiescent(), "a deferred message is still in flight");
        assert_eq!(net.step(), 1);
        let late: Vec<u64> = net
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        assert_eq!(late, vec![20]);
        assert_eq!(net.stats().dropped, 0, "reordering is not loss");
    }

    #[test]
    fn advance_to_flushes_deferred_reorder_traffic() {
        let plan = FaultPlan::none(2).reorder_every(1);
        let mut stepped: Network<u64> = Network::with_faults(2, plan.clone());
        let mut jumped: Network<u64> = Network::with_faults(2, plan);
        for net in [&mut stepped, &mut jumped] {
            net.send(NodeId(0), NodeId(1), 7);
        }
        for _ in 0..4 {
            stepped.step();
        }
        assert_eq!(jumped.advance_to(4), 1);
        assert_eq!(jumped.round(), stepped.round());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.take_inbox(NodeId(1)), stepped.take_inbox(NodeId(1)));
    }

    #[test]
    fn advance_to_matches_repeated_steps() {
        let mut stepped: Network<u64> = Network::new(2);
        let mut jumped: Network<u64> = Network::new(2);
        for net in [&mut stepped, &mut jumped] {
            net.send(NodeId(0), NodeId(1), 7);
        }
        for _ in 0..5 {
            stepped.step();
        }
        assert_eq!(jumped.advance_to(5), 1);
        assert_eq!(jumped.round(), stepped.round());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.take_inbox(NodeId(1)), stepped.take_inbox(NodeId(1)));
        // At-or-before targets are no-ops.
        assert_eq!(jumped.advance_to(3), 0);
        assert_eq!(jumped.round(), 5);
    }

    /// A payload that counts its clones through a shared cell.
    #[derive(Debug)]
    struct CloneCounter(std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            CloneCounter(self.0.clone())
        }
    }

    impl Payload for CloneCounter {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn broadcast_from_a_crashed_sender_clones_nothing() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let plan = FaultPlan::none(4).crash_at(NodeId(1), 0);
        let mut net: Network<CloneCounter> =
            Network::with_faults(4, plan).with_delay(DelayProfile::fixed(2));
        net.broadcast(NodeId(1), CloneCounter(clones.clone()));
        assert_eq!(clones.get(), 0, "a doomed broadcast stores no copies");
        assert_eq!(net.stats().point_to_point, 3, "still n − 1 sends");
        assert_eq!(net.advance_to(3), 0);
        assert_eq!(net.stats().dropped, 3, "tallied on the due tick");
        assert!(net.is_quiescent());
        // A live sender copies once per surviving recipient: nodes 2 and
        // 3, but not the crashed node 1.
        net.broadcast(NodeId(0), CloneCounter(clones.clone()));
        assert_eq!(clones.get(), 2);
    }
}
