//! The message fabric: registration, delivery, RPC, failure injection.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::envelope::{Envelope, MessageKind};
use crate::link::{DetRng, LinkModel};
use crate::stats::{FabricStats, NodeCounters, NodeStats, StatsRegistry};
use crate::{NetError, NodeId};

/// The shared in-process network connecting all cluster nodes.
///
/// Create one fabric per simulated cluster, [`register`](Fabric::register)
/// an [`Endpoint`] per node, and hand each endpoint to its node's threads.
/// The fabric owns a background delivery thread that applies the
/// [`LinkModel`] before handing messages to receivers; it shuts down when
/// the last endpoint and fabric handle are dropped.
#[derive(Debug, Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

#[derive(Debug)]
struct FabricInner {
    link: LinkModel,
    /// Current drop probability as `f64::to_bits`, runtime-mutable so
    /// chaos schedules can open and close lossy-link phases on a running
    /// cluster (initialised from `link.drop_probability`).
    drop_bits: AtomicU64,
    stats: StatsRegistry,
    nodes: RwLock<HashMap<NodeId, NodeState>>,
    sched_tx: Sender<Scheduled>,
    next_correlation: AtomicU64,
    rng: Mutex<DetRng>,
    /// Partition group per node; nodes in different groups cannot talk.
    partition: RwLock<HashMap<NodeId, u32>>,
    /// Per-directed-link drop probability overrides as `f64::to_bits`.
    /// When a link has an entry it replaces the global probability for
    /// that direction only, so chaos schedules can degrade individual
    /// links asymmetrically.
    link_drop: RwLock<HashMap<(NodeId, NodeId), u64>>,
    /// Last scheduled delivery instant per directed link, to preserve
    /// per-link FIFO despite jitter.
    link_clock: Mutex<HashMap<(NodeId, NodeId), Instant>>,
}

#[derive(Debug, Clone)]
struct NodeState {
    inbox_tx: Sender<Envelope>,
    pending: Arc<Mutex<HashMap<u64, Sender<Vec<u8>>>>>,
    alive: Arc<AtomicBool>,
    counters: Arc<NodeCounters>,
}

struct Scheduled {
    at: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl Fabric {
    /// Creates a fabric whose links all follow `link`, seeded
    /// deterministically.
    pub fn new(link: LinkModel) -> Self {
        Fabric::with_seed(link, 0x57CA_C0FF_EE00_u64)
    }

    /// Creates a fabric with an explicit RNG seed for the loss/jitter
    /// draws, for reproducible failure experiments.
    pub fn with_seed(link: LinkModel, seed: u64) -> Self {
        let (sched_tx, sched_rx) = channel::unbounded();
        let inner = Arc::new(FabricInner {
            link,
            drop_bits: AtomicU64::new(link.drop_probability.to_bits()),
            stats: StatsRegistry::default(),
            nodes: RwLock::new(HashMap::new()),
            sched_tx,
            next_correlation: AtomicU64::new(1),
            rng: Mutex::new(DetRng::new(seed)),
            partition: RwLock::new(HashMap::new()),
            link_drop: RwLock::new(HashMap::new()),
            link_clock: Mutex::new(HashMap::new()),
        });
        let thread_inner = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("stcam-fabric-delivery".into())
            .spawn(move || delivery_loop(sched_rx, thread_inner))
            .expect("spawn delivery thread");
        Fabric { inner }
    }

    /// Registers `node` and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already registered.
    pub fn register(&self, node: NodeId) -> Endpoint {
        let (inbox_tx, inbox_rx) = channel::unbounded();
        let counters = Arc::new(NodeCounters::default());
        let state = NodeState {
            inbox_tx,
            pending: Arc::new(Mutex::new(HashMap::new())),
            alive: Arc::new(AtomicBool::new(true)),
            counters: Arc::clone(&counters),
        };
        let mut nodes = self.inner.nodes.write();
        assert!(!nodes.contains_key(&node), "node {node} already registered");
        self.inner
            .stats
            .nodes
            .write()
            .insert(node, Arc::clone(&counters));
        let pending = Arc::clone(&state.pending);
        let alive = Arc::clone(&state.alive);
        nodes.insert(node, state);
        Endpoint {
            node,
            inner: Arc::clone(&self.inner),
            inbox_rx,
            pending,
            alive,
            counters,
            observer: Mutex::new(None),
        }
    }

    /// Marks `node` as crashed: its sends fail, deliveries to it are
    /// dropped, and outstanding RPCs against it will time out.
    pub fn crash(&self, node: NodeId) {
        if let Some(state) = self.inner.nodes.read().get(&node) {
            state.alive.store(false, Ordering::SeqCst);
            // Fail outstanding RPC callers promptly by dropping their
            // response channels.
            state.pending.lock().clear();
        }
    }

    /// Reverses [`crash`](Fabric::crash); the node resumes with an empty
    /// inbox history (messages dropped while down stay dropped).
    pub fn restart(&self, node: NodeId) {
        if let Some(state) = self.inner.nodes.read().get(&node) {
            state.alive.store(true, Ordering::SeqCst);
        }
    }

    /// `true` when `node` is registered and not crashed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.inner
            .nodes
            .read()
            .get(&node)
            .map(|s| s.alive.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Splits the cluster into isolated groups: messages between nodes in
    /// different groups are dropped. Nodes not mentioned keep group 0.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        let mut map = self.inner.partition.write();
        map.clear();
        for (gi, group) in groups.iter().enumerate() {
            for node in *group {
                map.insert(*node, gi as u32 + 1);
            }
        }
    }

    /// Removes all partitions.
    pub fn heal_partition(&self) {
        self.inner.partition.write().clear();
    }

    /// A snapshot of all traffic counters.
    pub fn stats(&self) -> FabricStats {
        self.inner.stats.snapshot()
    }

    /// The link model used by every link of this fabric, with the
    /// *current* drop probability (see
    /// [`set_drop_probability`](Self::set_drop_probability)).
    pub fn link_model(&self) -> LinkModel {
        let mut link = self.inner.link;
        link.drop_probability = f64::from_bits(self.inner.drop_bits.load(Ordering::SeqCst));
        link
    }

    /// Changes the loss rate of every link at runtime. Messages already
    /// scheduled for delivery are unaffected; subsequent sends draw
    /// against the new probability. Chaos schedules use this to run
    /// lossy-link phases against a live cluster.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    pub fn set_drop_probability(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.inner.drop_bits.store(p.to_bits(), Ordering::SeqCst);
    }

    /// Sets the loss rate of the single directed link `src → dst`,
    /// overriding the global probability for that direction. The reverse
    /// direction is unaffected, which models asymmetric degradation
    /// (e.g. a camera uplink losing frames while downlink control
    /// traffic still arrives).
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    pub fn set_link_drop_probability(&self, src: NodeId, dst: NodeId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.inner.link_drop.write().insert((src, dst), p.to_bits());
    }

    /// Removes a per-link override installed by
    /// [`set_link_drop_probability`](Self::set_link_drop_probability);
    /// the link falls back to the global probability.
    pub fn clear_link_drop_probability(&self, src: NodeId, dst: NodeId) {
        self.inner.link_drop.write().remove(&(src, dst));
    }
}

impl FabricInner {
    fn same_partition(&self, a: NodeId, b: NodeId) -> bool {
        let map = self.partition.read();
        map.get(&a).copied().unwrap_or(0) == map.get(&b).copied().unwrap_or(0)
    }

    /// Common send path; returns Ok even when the loss model drops the
    /// message (like UDP — reliability is the caller's concern via RPC).
    fn submit(&self, env: Envelope) -> Result<(), NetError> {
        let nodes = self.nodes.read();
        let src_state = nodes.get(&env.src).ok_or(NetError::UnknownNode(env.src))?;
        if !src_state.alive.load(Ordering::SeqCst) {
            return Err(NetError::NodeDown(env.src));
        }
        let dst_state = nodes.get(&env.dst).ok_or(NetError::UnknownNode(env.dst))?;
        let size = env.wire_size();
        src_state.counters.msgs_sent.fetch_add(1, Ordering::Relaxed);
        src_state
            .counters
            .bytes_sent
            .fetch_add(size, Ordering::Relaxed);
        self.stats.total_msgs.fetch_add(1, Ordering::Relaxed);
        self.stats.total_bytes.fetch_add(size, Ordering::Relaxed);
        if env.kind == MessageKind::Response {
            self.stats
                .max_response_bytes
                .fetch_max(size, Ordering::Relaxed);
        }

        // Loss, partition and dead-destination checks happen at send time;
        // crash-at-delivery races are checked again in the delivery loop.
        let dropped =
            !dst_state.alive.load(Ordering::SeqCst) || !self.same_partition(env.src, env.dst) || {
                let p = self
                    .link_drop
                    .read()
                    .get(&(env.src, env.dst))
                    .map(|bits| f64::from_bits(*bits))
                    .unwrap_or_else(|| f64::from_bits(self.drop_bits.load(Ordering::Relaxed)));
                p > 0.0 && self.rng.lock().next_f64() < p
            };
        if dropped {
            src_state
                .counters
                .msgs_dropped
                .fetch_add(1, Ordering::Relaxed);
            self.stats.total_dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        let u = self.rng.lock().next_f64();
        let latency = self.link.latency_for(env.payload.len(), u);
        let now = Instant::now();
        let mut at = now + latency;
        {
            // Preserve per-link FIFO despite jitter.
            let mut clock = self.link_clock.lock();
            let entry = clock.entry((env.src, env.dst)).or_insert(at);
            if *entry > at {
                at = *entry;
            } else {
                *entry = at;
            }
        }
        let seq = self.next_correlation.fetch_add(1, Ordering::Relaxed);
        self.sched_tx
            .send(Scheduled { at, seq, env })
            .map_err(|_| NetError::Shutdown)
    }

    fn deliver(&self, env: Envelope) {
        let nodes = self.nodes.read();
        let Some(dst_state) = nodes.get(&env.dst) else {
            return;
        };
        if !dst_state.alive.load(Ordering::SeqCst) {
            self.stats.total_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let size = env.wire_size();
        dst_state
            .counters
            .msgs_received
            .fetch_add(1, Ordering::Relaxed);
        dst_state
            .counters
            .bytes_received
            .fetch_add(size, Ordering::Relaxed);
        match env.kind {
            MessageKind::Response => {
                let sender = dst_state.pending.lock().remove(&env.correlation);
                if let Some(tx) = sender {
                    let _ = tx.send(env.payload);
                }
                // Late responses after caller timeout are silently dropped,
                // matching at-most-once RPC semantics.
            }
            MessageKind::OneWay | MessageKind::Request => {
                let _ = dst_state.inbox_tx.send(env);
            }
        }
    }
}

fn delivery_loop(rx: Receiver<Scheduled>, inner: std::sync::Weak<FabricInner>) {
    // OS timers cannot sleep accurately for the sub-millisecond latencies
    // a LAN model produces, so waits below this threshold yield-poll
    // instead of parking. `yield_now` (rather than a pure spin) keeps the
    // simulator usable on low-core-count hosts, where a spinning delivery
    // thread would starve the very threads it is delivering to.
    const SPIN_BELOW: Duration = Duration::from_millis(1);
    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    loop {
        let now = Instant::now();
        // Deliver everything due.
        while heap.peek().is_some_and(|s| s.at <= now) {
            let s = heap.pop().expect("peeked");
            match inner.upgrade() {
                Some(inner) => inner.deliver(s.env),
                None => return,
            }
        }
        let wait = heap.peek().map(|s| s.at.saturating_duration_since(now));
        let received = match wait {
            Some(Duration::ZERO) => continue,
            Some(d) if d < SPIN_BELOW => {
                let deadline = now + d;
                loop {
                    match rx.try_recv() {
                        Ok(s) => break Some(s),
                        Err(_) if Instant::now() >= deadline => break None,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            }
            Some(d) => rx.recv_timeout(d).ok(),
            None => rx.recv().ok(),
        };
        match received {
            Some(s) => heap.push(s),
            None if wait.is_none() => return, // disconnected and idle
            None => {}                        // timeout: loop to deliver
        }
    }
}

/// Observer of per-destination RPC outcomes: invoked after every
/// [`Endpoint::call`] with the destination and whether a response arrived
/// in time. This is the transport's suspicion hook — failure detectors
/// layered above the fabric (e.g. a coordinator health view) subscribe
/// here instead of re-deriving outcomes from error plumbing.
pub type CallObserver = Arc<dyn Fn(NodeId, bool) + Send + Sync>;

/// A node's handle onto the fabric.
///
/// Cheap to clone is *not* provided deliberately: each node owns exactly
/// one endpoint, mirroring one socket per process. The endpoint is `Send`,
/// so a node may move it into its serving thread; concurrent RPC *calls*
/// from multiple threads of the same node are supported through interior
/// synchronisation.
pub struct Endpoint {
    node: NodeId,
    inner: Arc<FabricInner>,
    inbox_rx: Receiver<Envelope>,
    pending: Arc<Mutex<HashMap<u64, Sender<Vec<u8>>>>>,
    alive: Arc<AtomicBool>,
    counters: Arc<NodeCounters>,
    observer: Mutex<Option<CallObserver>>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", &self.node)
            .field("observer", &self.observer.lock().is_some())
            .finish_non_exhaustive()
    }
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Sends a fire-and-forget message.
    ///
    /// Delivery is not guaranteed (the loss model, partitions, or a crashed
    /// destination may drop it); use [`call`](Self::call) for reliability.
    ///
    /// # Errors
    ///
    /// Fails when this node is down, the destination is unknown, or the
    /// fabric has shut down.
    pub fn send(&self, to: NodeId, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.submit(Envelope {
            src: self.node,
            dst: to,
            kind: MessageKind::OneWay,
            correlation: 0,
            payload,
        })
    }

    /// Sends a request and blocks until its response arrives or `timeout`
    /// elapses.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when no response arrives in time (the request
    /// or response may have been lost, or the peer crashed); other errors
    /// as for [`send`](Self::send).
    pub fn call(
        &self,
        to: NodeId,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<Vec<u8>, NetError> {
        let call = self.call_start(to, payload)?;
        self.call_wait(call, timeout)
    }

    /// Puts a request on the wire and returns without waiting: the
    /// response is claimed later by [`call_wait`](Self::call_wait). This
    /// is how a scatter overlaps its round trips on one thread — start
    /// every sub-query first, then wait for each in turn.
    ///
    /// A started call whose response is never waited for leaks its
    /// correlation entry only until the response (or nothing — a lost
    /// frame's entry is reclaimed on [`call_wait`](Self::call_wait) timeout) arrives.
    ///
    /// # Errors
    ///
    /// As for [`send`](Self::send). Submission errors are local (own node
    /// down, unknown peer, shutdown) — not evidence about the
    /// destination's health, so the call observer is not invoked.
    pub fn call_start(&self, to: NodeId, payload: Vec<u8>) -> Result<PendingCall, NetError> {
        let correlation = self.inner.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.pending.lock().insert(correlation, tx);
        let submitted = self.inner.submit(Envelope {
            src: self.node,
            dst: to,
            kind: MessageKind::Request,
            correlation,
            payload,
        });
        if let Err(e) = submitted {
            self.pending.lock().remove(&correlation);
            return Err(e);
        }
        Ok(PendingCall {
            to,
            correlation,
            rx,
        })
    }

    /// Blocks until a started call's response arrives or `timeout`
    /// elapses, and reports the outcome to the call observer.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when no response arrives in time (the
    /// request or response may have been lost, or the peer crashed).
    pub fn call_wait(&self, call: PendingCall, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let result = match call.rx.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(_) => {
                self.pending.lock().remove(&call.correlation);
                Err(NetError::Timeout)
            }
        };
        let observer = self.observer.lock().clone();
        if let Some(observer) = observer {
            observer(call.to, result.is_ok());
        }
        result
    }

    /// Installs the per-node suspicion hook: `observer` runs after every
    /// [`call`](Self::call) that reached the wire, with the destination
    /// and whether a response arrived in time. Local submission failures
    /// (own node crashed, unknown peer) do not trigger it. Replaces any
    /// previously installed observer.
    pub fn set_call_observer(&self, observer: CallObserver) {
        *self.observer.lock() = Some(observer);
    }

    /// Replies to a previously received [`MessageKind::Request`] envelope.
    ///
    /// # Errors
    ///
    /// As for [`send`](Self::send).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `request` is not a request envelope.
    pub fn reply(&self, request: &Envelope, payload: Vec<u8>) -> Result<(), NetError> {
        debug_assert!(request.kind == MessageKind::Request, "reply to non-request");
        self.inner.submit(Envelope {
            src: self.node,
            dst: request.src,
            kind: MessageKind::Response,
            correlation: request.correlation,
            payload,
        })
    }

    /// Receives the next inbound message, blocking up to `timeout`.
    /// Returns `None` on timeout or fabric shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }

    /// Receives the next inbound message, blocking indefinitely. Returns
    /// `None` only on fabric shutdown — use a [`Waker`] to interrupt a
    /// blocked receiver (e.g. for node shutdown), since a crash injected
    /// by the fabric does not close the inbox.
    pub fn recv(&self) -> Option<Envelope> {
        self.inbox_rx.recv().ok()
    }

    /// A handle that can interrupt this endpoint's blocking
    /// [`recv`](Self::recv) from another thread by injecting a local wake
    /// marker directly into the inbox. The marker bypasses the link model
    /// and aliveness checks (it never touches the wire), so it works even
    /// while the node is crashed by failure injection.
    pub fn waker(&self) -> Waker {
        let inbox_tx = self
            .inner
            .nodes
            .read()
            .get(&self.node)
            .map(|s| s.inbox_tx.clone())
            .expect("own node is registered");
        Waker {
            node: self.node,
            inbox_tx,
        }
    }

    /// Receives the next inbound message without blocking.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.inbox_rx.try_recv().ok()
    }

    /// `true` until this node is crashed by failure injection.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Snapshot of this node's traffic counters.
    pub fn stats(&self) -> NodeStats {
        self.counters.snapshot()
    }
}

/// A request in flight: created by [`Endpoint::call_start`], resolved by
/// [`Endpoint::call_wait`]. Holding one does not block anything — the
/// response waits in a buffered channel until claimed.
#[derive(Debug)]
pub struct PendingCall {
    to: NodeId,
    correlation: u64,
    rx: Receiver<Vec<u8>>,
}

/// Correlation value marking a local wake envelope (never produced by
/// RPC: real correlations count up from 1).
const WAKE_CORRELATION: u64 = u64::MAX;

/// Interrupts a blocked [`Endpoint::recv`] by injecting a wake marker
/// into the endpoint's inbox, off the wire. Obtained from
/// [`Endpoint::waker`]; cheap to clone and `Send`, so a node's control
/// thread can be woken from any other thread (shutdown, timers).
#[derive(Clone)]
pub struct Waker {
    node: NodeId,
    inbox_tx: Sender<Envelope>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("node", &self.node).finish()
    }
}

impl Waker {
    /// Wakes the endpoint: its blocked [`Endpoint::recv`] returns a
    /// marker envelope for which [`Waker::is_wake`] is `true`. A no-op
    /// after fabric shutdown.
    pub fn wake(&self) {
        let _ = self.inbox_tx.send(Envelope {
            src: self.node,
            dst: self.node,
            kind: MessageKind::OneWay,
            correlation: WAKE_CORRELATION,
            payload: Vec::new(),
        });
    }

    /// Whether `env` is a wake marker (to be discarded by the receive
    /// loop after it re-checks its stop condition).
    pub fn is_wake(env: &Envelope) -> bool {
        env.kind == MessageKind::OneWay && env.correlation == WAKE_CORRELATION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_fabric() -> Fabric {
        Fabric::new(LinkModel::instant())
    }

    #[test]
    fn send_and_receive() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        a.send(NodeId(1), b"hi".to_vec()).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.payload, b"hi");
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.kind, MessageKind::OneWay);
    }

    #[test]
    fn rpc_round_trip() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let handle = std::thread::spawn(move || {
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(req.kind, MessageKind::Request);
            server.reply(&req, b"pong".to_vec()).unwrap();
        });
        let resp = client
            .call(NodeId(1), b"ping".to_vec(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp, b"pong");
        handle.join().unwrap();
    }

    #[test]
    fn unknown_node_errors() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        assert_eq!(
            a.send(NodeId(9), vec![]),
            Err(NetError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn duplicate_registration_panics() {
        let f = instant_fabric();
        let _a = f.register(NodeId(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _b = f.register(NodeId(0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn crash_drops_messages_and_fails_sends() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        f.crash(NodeId(1));
        assert!(!f.is_alive(NodeId(1)));
        a.send(NodeId(1), b"lost".to_vec()).unwrap(); // silently dropped
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        assert_eq!(
            b.send(NodeId(0), vec![]),
            Err(NetError::NodeDown(NodeId(1)))
        );
        f.restart(NodeId(1));
        assert!(f.is_alive(NodeId(1)));
        a.send(NodeId(1), b"back".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn rpc_to_crashed_node_times_out() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let _b = f.register(NodeId(1));
        f.crash(NodeId(1));
        let err = a
            .call(NodeId(1), vec![], Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        let c = f.register(NodeId(2));
        f.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2)]]);
        a.send(NodeId(1), b"same side".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
        a.send(NodeId(2), b"other side".to_vec()).unwrap();
        assert!(c.recv_timeout(Duration::from_millis(50)).is_none());
        f.heal_partition();
        a.send(NodeId(2), b"healed".to_vec()).unwrap();
        assert!(c.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn loss_model_drops_roughly_the_right_fraction() {
        let f = Fabric::with_seed(LinkModel::instant().with_drop_probability(0.5), 99);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        for _ in 0..1000 {
            a.send(NodeId(1), vec![0u8; 8]).unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(100)).is_some() {
            received += 1;
        }
        assert!((300..700).contains(&received), "received {received}");
        let stats = f.stats();
        assert_eq!(stats.total_dropped + received, 1000);
    }

    #[test]
    fn drop_probability_is_runtime_mutable() {
        let f = Fabric::with_seed(LinkModel::instant(), 7);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        f.set_drop_probability(1.0);
        assert_eq!(f.link_model().drop_probability, 1.0);
        a.send(NodeId(1), b"lost".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        f.set_drop_probability(0.0);
        a.send(NodeId(1), b"through".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn per_link_drop_is_asymmetric_and_overrides_the_global_rate() {
        let f = Fabric::with_seed(LinkModel::instant(), 7);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        // Kill only the 0 → 1 direction; the reverse stays clean.
        f.set_link_drop_probability(NodeId(0), NodeId(1), 1.0);
        a.send(NodeId(1), b"uplink".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_none());
        b.send(NodeId(0), b"downlink".to_vec()).unwrap();
        assert!(a.recv_timeout(Duration::from_secs(1)).is_some());
        // The per-link override beats the global knob in both directions:
        // a lossless override punches through a fully lossy fabric.
        f.set_drop_probability(1.0);
        f.set_link_drop_probability(NodeId(0), NodeId(1), 0.0);
        a.send(NodeId(1), b"exempt".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
        b.send(NodeId(0), b"not exempt".to_vec()).unwrap();
        assert!(a.recv_timeout(Duration::from_millis(50)).is_none());
        // Clearing the override falls back to the global rate.
        f.set_drop_probability(0.0);
        f.clear_link_drop_probability(NodeId(0), NodeId(1));
        a.send(NodeId(1), b"restored".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn latency_is_applied() {
        let link = LinkModel {
            base_latency: Duration::from_millis(30),
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: Duration::ZERO,
            drop_probability: 0.0,
        };
        let f = Fabric::new(link);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        let t0 = Instant::now();
        a.send(NodeId(1), vec![]).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1));
        let elapsed = t0.elapsed();
        assert!(env.is_some());
        assert!(elapsed >= Duration::from_millis(25), "elapsed {elapsed:?}");
    }

    #[test]
    fn per_link_fifo_despite_jitter() {
        let link = LinkModel {
            base_latency: Duration::from_micros(200),
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: Duration::from_micros(200),
            drop_probability: 0.0,
        };
        let f = Fabric::new(link);
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        for i in 0..200u32 {
            a.send(NodeId(1), i.to_le_bytes().to_vec()).unwrap();
        }
        let mut last = None;
        for _ in 0..200 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            let v = u32::from_le_bytes(env.payload.try_into().unwrap());
            if let Some(prev) = last {
                assert!(v > prev, "reordered: {v} after {prev}");
            }
            last = Some(v);
        }
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let b = f.register(NodeId(1));
        a.send(NodeId(1), vec![0u8; 100]).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let s = f.stats();
        assert_eq!(s.total_msgs, 1);
        assert_eq!(s.total_bytes, 116);
        assert_eq!(s.per_node[&NodeId(0)].msgs_sent, 1);
        assert_eq!(s.per_node[&NodeId(1)].msgs_received, 1);
        assert_eq!(a.stats().bytes_sent, 116);
    }

    #[test]
    fn call_observer_sees_successes_and_timeouts() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let seen: Arc<Mutex<Vec<(NodeId, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        client.set_call_observer(Arc::new(move |node, ok| sink.lock().push((node, ok))));
        let server_thread = std::thread::spawn(move || {
            let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&req, b"ok".to_vec()).unwrap();
        });
        client
            .call(NodeId(1), b"hi".to_vec(), Duration::from_secs(5))
            .unwrap();
        server_thread.join().unwrap();
        f.crash(NodeId(1));
        let err = client
            .call(NodeId(1), vec![], Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        // Local submission errors (unknown peer) must not blame the peer.
        let _ = client.call(NodeId(9), vec![], Duration::from_millis(30));
        assert_eq!(*seen.lock(), vec![(NodeId(1), true), (NodeId(1), false)]);
    }

    #[test]
    fn waker_interrupts_blocking_recv() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let waker = a.waker();
        let handle = std::thread::spawn(move || {
            let env = a.recv().expect("woken, not shut down");
            assert!(Waker::is_wake(&env));
        });
        std::thread::sleep(Duration::from_millis(20));
        waker.wake();
        handle.join().unwrap();
    }

    #[test]
    fn waker_reaches_a_crashed_node() {
        let f = instant_fabric();
        let a = f.register(NodeId(0));
        let waker = a.waker();
        f.crash(NodeId(0));
        waker.wake();
        let env = a.recv().expect("wake bypasses aliveness");
        assert!(Waker::is_wake(&env));
        // Real traffic is not mistaken for a wake.
        f.restart(NodeId(0));
        let b = f.register(NodeId(1));
        b.send(NodeId(0), b"real".to_vec()).unwrap();
        let env = a.recv().unwrap();
        assert!(!Waker::is_wake(&env));
    }

    #[test]
    fn response_high_water_tracks_largest_response_frame() {
        let f = instant_fabric();
        let client = f.register(NodeId(0));
        let server = f.register(NodeId(1));
        let server_thread = std::thread::spawn(move || {
            for _ in 0..2 {
                let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
                let n = req.payload[0] as usize * 100;
                server.reply(&req, vec![0u8; n]).unwrap();
            }
        });
        client
            .call(NodeId(1), vec![3u8; 1000], Duration::from_secs(5))
            .unwrap();
        client
            .call(NodeId(1), vec![1u8], Duration::from_secs(5))
            .unwrap();
        server_thread.join().unwrap();
        let stats = f.stats();
        // Largest *response* (300 B payload + overhead); the 1000 B
        // request does not count.
        assert_eq!(
            stats.max_response_bytes,
            300 + crate::envelope::WIRE_OVERHEAD
        );
        // since() carries the high-water instead of subtracting it.
        assert_eq!(
            f.stats().since(&stats).max_response_bytes,
            stats.max_response_bytes
        );
    }

    #[test]
    fn concurrent_rpcs_from_one_node() {
        let f = instant_fabric();
        let client = Arc::new(f.register(NodeId(0)));
        let server = f.register(NodeId(1));
        let server_thread = std::thread::spawn(move || {
            for _ in 0..40 {
                let req = server.recv_timeout(Duration::from_secs(5)).unwrap();
                let mut resp = req.payload.clone();
                resp.push(0xAA);
                server.reply(&req, resp).unwrap();
            }
        });
        let mut handles = vec![];
        for t in 0..4u8 {
            let c = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                for i in 0..10u8 {
                    let resp = c
                        .call(NodeId(1), vec![t, i], Duration::from_secs(5))
                        .unwrap();
                    assert_eq!(resp, vec![t, i, 0xAA]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server_thread.join().unwrap();
    }
}
