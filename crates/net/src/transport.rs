//! The [`Transport`] trait and its two backends.
//!
//! A transport moves [`Packet`]s between logical actors identified by
//! [`NodeId`]. The simulator's message bus is one implementation of the
//! idea (the kernel routes `Ctx::send` directly); for real deployments
//! this module provides:
//!
//! * [`MemTransport`] — an in-process hub for tests: endpoints share a
//!   registry and sends are routed by destination id with no threads or
//!   sockets involved.
//! * [`TcpTransport`] — a thread-per-peer `std::net` backend: one
//!   listener thread accepting inbound streams, one reader thread per
//!   accepted connection, and one sender thread per remote address with
//!   a bounded outbound queue, reconnect with exponential backoff, and
//!   the [`Hello`] session handshake on every stream.
//!
//! Connections are **unidirectional**: each ordered (process → address)
//! pair gets its own stream, the dialer writes and the acceptor reads.
//! That removes all connection-dedup logic — two processes that talk in
//! both directions simply hold two streams.
//!
//! Work crosses threads in batches. [`Transport::send_all`] takes the
//! sends an event loop produced while draining its work; the TCP backend
//! encodes each frame in place into one buffer per peer, appends it to
//! that peer's queue under one lock, and wakes the sender only when the
//! queue was empty. The sender takes the whole queue and writes it with
//! one `write`. A reader parses every complete frame out of one reusable
//! read buffer and hands them to the inbox under one lock and at most one
//! wake, and [`Transport::recv_all`] drains the inbox whole. Nothing waits
//! to coalesce: a batch is whatever is queued when the other side looks.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ahl_crypto::Hash;
use ahl_simkit::NodeId;
use ahl_wal::codec::{crc32, encode_frame, Writer, MAX_FRAME};

use crate::wire::{decode_payload, write_payload, Hello, Packet, Wire, HELLO_ACK, WIRE_VERSION};

/// An inbound transport event.
#[derive(Clone, Debug)]
pub enum NetEvent<M> {
    /// A peer's stream completed its handshake (id = the peer's primary
    /// node id from its [`Hello`]).
    PeerUp(NodeId),
    /// A peer's stream closed or failed; the dialer side will be
    /// reconnecting with backoff.
    PeerDown(NodeId),
    /// A routed packet addressed to a local actor.
    Packet {
        /// Sending actor.
        from: NodeId,
        /// Destination actor (hosted by this process).
        to: NodeId,
        /// Application or control payload.
        body: Packet<M>,
    },
}

/// One outbound message: `(from, to, body)`.
pub type Outgoing<M> = (NodeId, NodeId, Packet<M>);

/// Counters every backend maintains; mirror of the simulator's scoped
/// `net.*` / `queue.dropped` stats so backpressure is visible the same
/// way in both worlds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames handed to the backend for sending.
    pub sent: u64,
    /// Frames delivered to the local inbox.
    pub received: u64,
    /// Frames dropped because a bounded outbound queue was full
    /// (backpressure — the analogue of the simulator's `queue.dropped`).
    pub tx_dropped: u64,
    /// Frames lost to a connection failure after being dequeued.
    pub tx_failed: u64,
    /// Successful (re)connections established by sender threads.
    pub connects: u64,
    /// Inbound streams refused for a bad handshake.
    pub handshake_failures: u64,
    /// Inbound frames discarded as torn/corrupt/undecodable.
    pub rx_rejected: u64,
}

#[derive(Default)]
struct StatCells {
    sent: AtomicU64,
    received: AtomicU64,
    tx_dropped: AtomicU64,
    tx_failed: AtomicU64,
    connects: AtomicU64,
    handshake_failures: AtomicU64,
    rx_rejected: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            sent: self.sent.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            tx_dropped: self.tx_dropped.load(Ordering::Relaxed),
            tx_failed: self.tx_failed.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            handshake_failures: self.handshake_failures.load(Ordering::Relaxed),
            rx_rejected: self.rx_rejected.load(Ordering::Relaxed),
        }
    }
}

/// A message bus connecting logical actors across process boundaries.
///
/// Methods take `&self`: backends use interior mutability so the hosting
/// runtime can send from actor callbacks while reader threads deliver.
pub trait Transport<M>: Send + Sync {
    /// Queue `body` from local actor `from` to actor `to`. Never blocks;
    /// a full outbound queue drops the frame and counts it.
    fn send(&self, from: NodeId, to: NodeId, body: Packet<M>);
    /// Queue every message in `batch`, in order, leaving it empty. Same
    /// contract as [`Transport::send`] per message; the default sends them
    /// one at a time, a backend may publish the batch at once.
    fn send_all(&self, batch: &mut Vec<Outgoing<M>>) {
        for (from, to, body) in batch.drain(..) {
            self.send(from, to, body);
        }
    }
    /// Block up to `timeout` for the next inbound event.
    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<M>>;
    /// Block up to `timeout` for inbound events and append those that are
    /// ready to `out`. The default takes at most one, a backend may drain
    /// everything it holds.
    fn recv_all(&self, timeout: Duration, out: &mut VecDeque<NetEvent<M>>) {
        out.extend(self.recv_timeout(timeout));
    }
    /// Actor ids this transport can route to (local and remote).
    fn known_nodes(&self) -> Vec<NodeId>;
    /// Snapshot of the backend's counters.
    fn stats(&self) -> TransportStats;
    /// Stop background threads and close connections. Idempotent.
    fn shutdown(&self);
}

/// Shared blocking inbox: reader threads push, the runtime pops.
struct Inbox<M> {
    q: Mutex<VecDeque<NetEvent<M>>>,
    cv: Condvar,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox { q: Mutex::new(VecDeque::new()), cv: Condvar::new() }
    }

    /// Append under one lock. The single consumer waits only on an empty
    /// inbox, so only the append that makes it non-empty wakes it.
    fn append(&self, add: impl FnOnce(&mut VecDeque<NetEvent<M>>)) {
        let mut q = self.q.lock().expect("inbox lock");
        let was_empty = q.is_empty();
        add(&mut q);
        let wake = was_empty && !q.is_empty();
        drop(q);
        if wake {
            self.cv.notify_one();
        }
    }

    fn push(&self, ev: NetEvent<M>) {
        self.append(|q| q.push_back(ev));
    }

    /// Move every event of `evs` in, leaving it empty.
    fn push_all(&self, evs: &mut Vec<NetEvent<M>>) {
        if !evs.is_empty() {
            self.append(|q| q.extend(evs.drain(..)));
        }
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<NetEvent<M>> {
        let mut q = self.q.lock().expect("inbox lock");
        if let Some(ev) = q.pop_front() {
            return Some(ev);
        }
        let (mut q, _) = self.cv.wait_timeout(q, timeout).expect("inbox lock");
        q.pop_front()
    }

    /// Wait up to `timeout` for an event, then move every queued one to
    /// `out`.
    fn drain_timeout(&self, timeout: Duration, out: &mut VecDeque<NetEvent<M>>) {
        let mut q = self.q.lock().expect("inbox lock");
        if q.is_empty() {
            q = self.cv.wait_timeout(q, timeout).expect("inbox lock").0;
        }
        if out.is_empty() {
            std::mem::swap(&mut *q, out);
        } else {
            out.extend(q.drain(..));
        }
    }
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// Registry connecting [`MemTransport`] endpoints in one process.
pub struct MemHub<M> {
    routes: Mutex<HashMap<NodeId, Arc<Inbox<M>>>>,
}

impl<M> Default for MemHub<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MemHub<M> {
    /// An empty hub.
    pub fn new() -> Self {
        MemHub { routes: Mutex::new(HashMap::new()) }
    }

    /// Create an endpoint hosting `local` actor ids on `hub`.
    pub fn endpoint(self: &Arc<Self>, local: Vec<NodeId>) -> MemTransport<M> {
        let inbox = Arc::new(Inbox::new());
        let mut routes = self.routes.lock().expect("hub lock");
        for &id in &local {
            routes.insert(id, inbox.clone());
        }
        drop(routes);
        MemTransport { hub: self.clone(), inbox, stats: Arc::new(StatCells::default()) }
    }
}

/// In-process [`Transport`] backend used by tests: no sockets, no
/// threads, routing by destination id through a shared [`MemHub`].
pub struct MemTransport<M> {
    hub: Arc<MemHub<M>>,
    inbox: Arc<Inbox<M>>,
    stats: Arc<StatCells>,
}

impl<M: Clone + Send> Transport<M> for MemTransport<M>
where
    M: 'static,
{
    fn send(&self, from: NodeId, to: NodeId, body: Packet<M>) {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let dest = self.hub.routes.lock().expect("hub lock").get(&to).cloned();
        match dest {
            Some(inbox) => {
                self.stats.received.fetch_add(1, Ordering::Relaxed);
                inbox.push(NetEvent::Packet { from, to, body });
            }
            None => {
                self.stats.tx_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<M>> {
        self.inbox.pop_timeout(timeout)
    }

    fn known_nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> =
            self.hub.routes.lock().expect("hub lock").keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn shutdown(&self) {}
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

/// Reconnect backoff start (doubles per failure up to [`BACKOFF_MAX`]).
/// Short, because the usual first failure is a dial that reached a peer
/// just before its listener bound: a cluster's processes start together.
const BACKOFF_START: Duration = Duration::from_millis(2);
/// Reconnect backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Poll interval at which blocked reader/sender threads re-check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(100);
/// Size of each reader's buffer. A larger frame grows it while that frame
/// is read in.
const READ_BUF: usize = 64 << 10;

/// Configuration for [`TcpTransport::start`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Address this process listens on.
    pub listen: SocketAddr,
    /// Actor ids hosted by this process (its primary id is the lowest).
    pub local: Vec<NodeId>,
    /// Peer table: every remote actor id and the address of the process
    /// hosting it. Many ids may map to one address.
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Cluster/genesis digest for the session handshake.
    pub cluster: Hash,
    /// Bound on each per-address outbound queue (frames); overflow drops.
    pub queue_capacity: usize,
}

impl TcpConfig {
    /// Config with the default queue bound (1024 frames per peer).
    pub fn new(listen: SocketAddr, local: Vec<NodeId>, peers: Vec<(NodeId, SocketAddr)>) -> Self {
        TcpConfig { listen, local, peers, cluster: Hash::ZERO, queue_capacity: 1024 }
    }
}

/// Frames bound for one peer, encoded back to back into one buffer. Each
/// frame's `[len][crc]` header is reserved before its payload is encoded
/// and filled in by [`FrameWriter::finish`], so the bytes are identical to
/// `encode_frame(&encode_payload(..))` without a second buffer per frame.
#[derive(Default)]
struct FrameWriter {
    w: Writer,
    /// Offset of each frame's header.
    starts: Vec<usize>,
}

impl FrameWriter {
    fn push<M: Wire>(&mut self, from: NodeId, to: NodeId, body: &Packet<M>) {
        self.starts.push(self.w.len());
        self.w.u64(0); // `[len][crc]`, filled in by `finish`
        write_payload(&mut self.w, from, to, body);
    }

    fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The framed bytes, and the offset at which each frame starts.
    fn finish(self) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = self.w.into_bytes();
        for (i, &at) in self.starts.iter().enumerate() {
            let end = self.starts.get(i + 1).copied().unwrap_or(bytes.len());
            let crc = crc32(&bytes[at + 8..end]);
            bytes[at..at + 4].copy_from_slice(&((end - at - 8) as u32).to_be_bytes());
            bytes[at + 4..at + 8].copy_from_slice(&crc.to_be_bytes());
        }
        (bytes, self.starts)
    }
}

/// Bounded queue of encoded frames feeding one sender thread, kept back to
/// back in one buffer so the sender can write it whole.
struct SendQueue {
    pending: Mutex<Pending>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct Pending {
    bytes: Vec<u8>,
    frames: usize,
}

impl SendQueue {
    fn new(capacity: usize) -> Self {
        SendQueue { pending: Mutex::new(Pending::default()), cv: Condvar::new(), capacity }
    }

    /// Append the frames of `bytes` (starting at `starts`) that fit and
    /// return how many were dropped. The sender waits only on an empty
    /// queue, so only the append that makes it non-empty wakes it.
    fn push_all(&self, bytes: &[u8], starts: &[usize]) -> u64 {
        let mut p = self.pending.lock().expect("queue lock");
        let was_empty = p.frames == 0;
        let take = starts.len().min(self.capacity.saturating_sub(p.frames));
        let cut = starts.get(take).copied().unwrap_or(bytes.len());
        p.bytes.extend_from_slice(&bytes[..cut]);
        p.frames += take;
        drop(p);
        if was_empty && take > 0 {
            self.cv.notify_one();
        }
        (starts.len() - take) as u64
    }

    /// Wait for queued frames and swap all of them into the empty `out`;
    /// returns how many were taken, or `None` once shut down and empty.
    fn take_all(&self, closed: &AtomicBool, out: &mut Vec<u8>) -> Option<u64> {
        let mut p = self.pending.lock().expect("queue lock");
        loop {
            if p.frames > 0 {
                std::mem::swap(&mut p.bytes, out);
                return Some(std::mem::take(&mut p.frames) as u64);
            }
            if closed.load(Ordering::Relaxed) {
                return None;
            }
            p = self.cv.wait_timeout(p, POLL).expect("queue lock").0;
        }
    }
}

/// Threaded `std::net` TCP backend. See the module docs for the thread
/// and connection model.
pub struct TcpTransport<M> {
    inbox: Arc<Inbox<M>>,
    stats: Arc<StatCells>,
    closed: Arc<AtomicBool>,
    /// One queue per remote address, each drained by its sender thread.
    queues: Vec<Arc<SendQueue>>,
    /// Destination actor id → index into `queues`.
    routes: HashMap<NodeId, usize>,
    local: Vec<NodeId>,
    listen: SocketAddr,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Accepted inbound streams by connection number, tracked so
    /// `shutdown` can unblock their reader threads. A reader removes its
    /// own entry when it exits.
    accepted: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl<M: Wire + Send + 'static> TcpTransport<M> {
    /// Bind the listener, spawn the accept loop and one sender thread per
    /// distinct remote address, and return the running transport.
    pub fn start(cfg: TcpConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(cfg.listen)?;
        // The OS may have assigned the port (listen on port 0 in tests).
        let listen = listener.local_addr()?;
        let inbox = Arc::new(Inbox::new());
        let stats = Arc::new(StatCells::default());
        let closed = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(Mutex::new(HashMap::new()));
        let primary = cfg.local.iter().copied().min().unwrap_or(0);
        let hello =
            Hello { version: WIRE_VERSION, sender: primary, cluster: cfg.cluster }.to_vec();

        let mut threads = Vec::new();

        // Accept loop.
        {
            let inbox = inbox.clone();
            let stats = stats.clone();
            let closed = closed.clone();
            let accepted = accepted.clone();
            let cluster = cfg.cluster;
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, inbox, stats, closed, accepted, cluster)
            }));
        }

        // One sender thread (and queue) per distinct remote address;
        // ids hosted by this process route straight into the inbox.
        let mut by_addr: HashMap<SocketAddr, usize> = HashMap::new();
        let mut queues = Vec::new();
        let mut routes = HashMap::new();
        for (id, addr) in &cfg.peers {
            if cfg.local.contains(id) || *addr == listen {
                continue; // local delivery, handled in send_all()
            }
            let i = *by_addr.entry(*addr).or_insert_with(|| {
                let q = Arc::new(SendQueue::new(cfg.queue_capacity));
                let addr = *addr;
                let hello = hello.clone();
                let stats = stats.clone();
                let closed = closed.clone();
                let qq = q.clone();
                threads.push(std::thread::spawn(move || {
                    sender_loop(addr, hello, qq, stats, closed)
                }));
                queues.push(q);
                queues.len() - 1
            });
            routes.insert(*id, i);
        }

        Ok(TcpTransport {
            inbox,
            stats,
            closed,
            queues,
            routes,
            local: cfg.local,
            listen,
            threads: Mutex::new(threads),
            accepted,
        })
    }

    /// The bound listen address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listen
    }
}

impl<M: Wire + Send + 'static> Transport<M> for TcpTransport<M> {
    fn send(&self, from: NodeId, to: NodeId, body: Packet<M>) {
        self.send_all(&mut vec![(from, to, body)]);
    }

    /// Encode outside any lock, then hand each peer queue its frames under
    /// one lock with at most one wake, and local deliveries to the inbox
    /// the same way.
    fn send_all(&self, batch: &mut Vec<Outgoing<M>>) {
        self.stats.sent.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut local = Vec::new();
        let mut staged: Vec<FrameWriter> =
            self.queues.iter().map(|_| FrameWriter::default()).collect();
        let mut dropped = 0;
        for (from, to, body) in batch.drain(..) {
            if self.local.contains(&to) {
                local.push(NetEvent::Packet { from, to, body });
            } else if let Some(&i) = self.routes.get(&to) {
                staged[i].push(from, to, &body);
            } else {
                dropped += 1;
            }
        }
        self.stats.received.fetch_add(local.len() as u64, Ordering::Relaxed);
        self.inbox.push_all(&mut local);
        for (q, frames) in self.queues.iter().zip(staged) {
            if !frames.is_empty() {
                let (bytes, starts) = frames.finish();
                dropped += q.push_all(&bytes, &starts);
            }
        }
        if dropped > 0 {
            self.stats.tx_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<M>> {
        self.inbox.pop_timeout(timeout)
    }

    fn recv_all(&self, timeout: Duration, out: &mut VecDeque<NetEvent<M>>) {
        self.inbox.drain_timeout(timeout, out);
    }

    fn known_nodes(&self) -> Vec<NodeId> {
        let mut ids = self.local.clone();
        ids.extend(self.routes.keys().copied());
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn shutdown(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.listen);
        for (_, s) in self.accepted.lock().expect("accepted lock").drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for q in &self.queues {
            q.cv.notify_all();
        }
        let threads: Vec<_> = self.threads.lock().expect("threads lock").drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        // Best-effort: signal without joining (join needs M: Wire bounds
        // satisfied by the caller's shutdown(); threads exit on the flag).
        self.closed.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.listen);
        if let Ok(mut acc) = self.accepted.lock() {
            for (_, s) in acc.drain() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

fn accept_loop<M: Wire + Send + 'static>(
    listener: TcpListener,
    inbox: Arc<Inbox<M>>,
    stats: Arc<StatCells>,
    closed: Arc<AtomicBool>,
    accepted: Arc<Mutex<HashMap<u64, TcpStream>>>,
    cluster: Hash,
) {
    for conn in 0u64.. {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if closed.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if closed.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(clone) = stream.try_clone() {
            accepted.lock().expect("accepted lock").insert(conn, clone);
        }
        let inbox = inbox.clone();
        let stats = stats.clone();
        let closed = closed.clone();
        let accepted = accepted.clone();
        std::thread::spawn(move || {
            reader_loop(stream, inbox, stats, closed, cluster);
            // The tracked clone goes with its reader, so a dialer that
            // keeps reconnecting (or keeps failing the handshake) does not
            // hold one more fd per attempt.
            if let Ok(mut acc) = accepted.lock() {
                acc.remove(&conn);
            }
        });
    }
}

/// Read the handshake then stream frames until EOF, error, or shutdown.
fn reader_loop<M: Wire + Send>(
    mut stream: TcpStream,
    inbox: Arc<Inbox<M>>,
    stats: Arc<StatCells>,
    closed: Arc<AtomicBool>,
    cluster: Hash,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut rb = ReadBuf::new(READ_BUF);
    let peer = match read_hello(&mut stream, &mut rb, &closed, cluster) {
        Some(h) => h.sender,
        None => {
            stats.handshake_failures.fetch_add(1, Ordering::Relaxed);
            // A clone of this stream sits in the accepted list, so drop
            // alone would leave the connection open; shut it down so the
            // dialer sees EOF instead of hanging on the ack.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    };
    if stream.write_all(&[HELLO_ACK]).is_err() {
        return;
    }
    inbox.push(NetEvent::PeerUp(peer));
    let mut batch = Vec::new();
    loop {
        let intact = drain_frames(&mut rb, &mut batch, &stats);
        stats.received.fetch_add(batch.len() as u64, Ordering::Relaxed);
        inbox.push_all(&mut batch);
        // A corrupt frame desynchronizes the stream; drop the connection
        // and let the dialer reconnect cleanly.
        if !intact || !fill_poll(&mut stream, &mut rb, &closed) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            inbox.push(NetEvent::PeerDown(peer));
            return;
        }
    }
}

fn read_hello(
    stream: &mut TcpStream,
    rb: &mut ReadBuf,
    closed: &AtomicBool,
    cluster: Hash,
) -> Option<Hello> {
    loop {
        match rb.next() {
            Next::Frame(payload) => {
                // Hello frames carry the raw Hello encoding (no routing header).
                let h = Hello::from_slice(payload)?;
                return (h.version == WIRE_VERSION && h.cluster == cluster).then_some(h);
            }
            Next::Corrupt => return None,
            Next::Partial => {}
        }
        if !fill_poll(stream, rb, closed) {
            return None;
        }
    }
}

/// What [`ReadBuf::next`] found at the front of the unparsed bytes.
enum Next<'a> {
    /// A whole frame with a good CRC: its payload.
    Frame(&'a [u8]),
    /// A CRC or length-prefix violation.
    Corrupt,
    /// Not a whole frame yet.
    Partial,
}

/// One inbound stream's reusable read buffer. Each `read` appends to it,
/// and complete `[len][crc][payload]` frames are parsed in place, so one
/// `read` can yield many frames and a frame that fits costs no allocation.
struct ReadBuf {
    buf: Vec<u8>,
    /// The unparsed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// The size `buf` returns to once a larger frame has been consumed.
    size: usize,
}

impl ReadBuf {
    fn new(size: usize) -> Self {
        ReadBuf { buf: vec![0; size], start: 0, end: 0, size }
    }

    /// Consume and check the next frame if it is all buffered.
    fn next(&mut self) -> Next<'_> {
        let h = &self.buf[self.start..self.end];
        if h.len() < 8 {
            return Next::Partial;
        }
        let len = u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize;
        let crc = u32::from_be_bytes([h[4], h[5], h[6], h[7]]);
        if len > MAX_FRAME {
            return Next::Corrupt;
        }
        if h.len() < 8 + len {
            return Next::Partial;
        }
        let at = self.start + 8;
        self.start = at + len;
        let payload = &self.buf[at..at + len];
        if crc32(payload) == crc {
            Next::Frame(payload)
        } else {
            Next::Corrupt
        }
    }

    /// One `read` from `r` after [`ReadBuf::next`] reported `Partial`:
    /// the unparsed bytes move to the front when the frame they begin
    /// would not fit behind them, and the buffer grows for a frame larger
    /// than it.
    fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > self.size {
                self.buf.truncate(self.size);
                self.buf.shrink_to_fit();
            }
        }
        let h = &self.buf[self.start..self.end];
        let need =
            if h.len() < 8 { 8 } else { 8 + u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize };
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// Decode every complete frame buffered in `rb` into `out`, counting an
/// undecodable payload as rejected. Returns false at a corrupt frame,
/// which is counted too; frames before it are in `out`.
fn drain_frames<M: Wire>(rb: &mut ReadBuf, out: &mut Vec<NetEvent<M>>, stats: &StatCells) -> bool {
    loop {
        match rb.next() {
            Next::Frame(payload) => match decode_payload::<M>(payload) {
                Some((from, to, body)) => out.push(NetEvent::Packet { from, to, body }),
                None => {
                    stats.rx_rejected.fetch_add(1, Ordering::Relaxed);
                }
            },
            Next::Corrupt => {
                stats.rx_rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Next::Partial => return true,
        }
    }
}

/// [`ReadBuf::fill`] that tolerates the read timeout (so shutdown is
/// observed) but fails on EOF or a real error.
fn fill_poll(stream: &mut impl Read, rb: &mut ReadBuf, closed: &AtomicBool) -> bool {
    loop {
        if closed.load(Ordering::Relaxed) {
            return false;
        }
        match rb.fill(stream) {
            Ok(0) => return false,
            Ok(_) => return true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return false,
        }
    }
}

/// Connect (with exponential backoff), handshake, then drain the queue
/// onto the stream, everything queued in one write; on any write failure
/// reconnect and keep going.
fn sender_loop(
    addr: SocketAddr,
    hello: Vec<u8>,
    q: Arc<SendQueue>,
    stats: Arc<StatCells>,
    closed: Arc<AtomicBool>,
) {
    let mut backoff = BACKOFF_START;
    let mut out = Vec::new();
    'reconnect: while !closed.load(Ordering::Relaxed) {
        let mut stream = match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => {
                sleep_poll(backoff, &closed);
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL));
        // Handshake: framed Hello out, one ack byte back.
        if stream.write_all(&encode_frame(&hello)).is_err() {
            sleep_poll(backoff, &closed);
            backoff = (backoff * 2).min(BACKOFF_MAX);
            continue;
        }
        let mut ack = [0u8; 1];
        if !read_exact_deadline(&mut stream, &mut ack, &closed, Duration::from_secs(5))
            || ack[0] != HELLO_ACK
        {
            sleep_poll(backoff, &closed);
            backoff = (backoff * 2).min(BACKOFF_MAX);
            continue;
        }
        stats.connects.fetch_add(1, Ordering::Relaxed);
        backoff = BACKOFF_START;
        while let Some(frames) = q.take_all(&closed, &mut out) {
            if !write_batch(&mut stream, &mut out, frames, &stats) {
                continue 'reconnect;
            }
        }
        return; // queue closed
    }
}

/// Write the `frames` frames in `out` with one `write_all` and empty it.
/// On failure every one of them is lost with the connection and counted
/// (consensus tolerates message loss; retransmit is its job).
fn write_batch(w: &mut impl IoWrite, out: &mut Vec<u8>, frames: u64, stats: &StatCells) -> bool {
    let ok = w.write_all(out).is_ok();
    out.clear();
    if !ok {
        stats.tx_failed.fetch_add(frames, Ordering::Relaxed);
    }
    ok
}

/// `read_exact` with an overall deadline that tolerates the read timeout
/// (so shutdown is observed), for handshake steps where a silent peer
/// must not wedge the thread.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    closed: &AtomicBool,
    deadline: Duration,
) -> bool {
    let start = std::time::Instant::now();
    let mut filled = 0;
    while filled < buf.len() {
        if closed.load(Ordering::Relaxed) || start.elapsed() > deadline {
            return false;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return false,
        }
    }
    true
}

fn sleep_poll(total: Duration, closed: &AtomicBool) {
    let mut left = total;
    while left > Duration::ZERO && !closed.load(Ordering::Relaxed) {
        let step = left.min(POLL);
        std::thread::sleep(step);
        left -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_payload, Control};
    use ahl_wal::codec::Reader;
    use std::time::Instant;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);

    impl Wire for Num {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.0);
        }
        fn decode(r: &mut Reader<'_>) -> Option<Self> {
            r.u64().map(Num)
        }
    }

    fn local(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    fn drain_until_packet<M: Clone>(t: &dyn Transport<M>, secs: u64) -> Option<(NodeId, NodeId, Packet<M>)> {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        while std::time::Instant::now() < deadline {
            match t.recv_timeout(Duration::from_millis(100)) {
                Some(NetEvent::Packet { from, to, body }) => return Some((from, to, body)),
                Some(_) => continue,
                None => continue,
            }
        }
        None
    }

    /// Poll `cond` until it holds or `secs` pass; returns whether it held.
    fn eventually(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        cond()
    }

    #[test]
    fn mem_transport_routes_by_destination() {
        let hub: Arc<MemHub<Num>> = Arc::new(MemHub::new());
        let a = hub.endpoint(vec![0, 1]);
        let b = hub.endpoint(vec![2]);
        a.send(0, 2, Packet::App(Num(7)));
        let (from, to, body) = drain_until_packet(&b, 2).expect("delivered");
        assert_eq!((from, to), (0, 2));
        assert!(matches!(body, Packet::App(Num(7))));
        // Unknown destination counts as a drop.
        a.send(0, 99, Packet::App(Num(1)));
        assert_eq!(a.stats().tx_dropped, 1);
        assert_eq!(b.known_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn tcp_roundtrip_and_peer_events() {
        let ta = TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![0], vec![])).expect("a");
        let peers = vec![(0, ta.local_addr())];
        let tb =
            TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![1], peers)).expect("b");
        tb.send(1, 0, Packet::App(Num(41)));
        tb.send(1, 0, Packet::Control(crate::wire::Control::Status));
        let (from, to, body) = drain_until_packet(&ta, 10).expect("app frame");
        assert_eq!((from, to), (1, 0));
        assert!(matches!(body, Packet::App(Num(41))));
        let (_, _, body) = drain_until_packet(&ta, 10).expect("control frame");
        assert!(matches!(body, Packet::Control(crate::wire::Control::Status)));
        assert!(tb.stats().connects >= 1);
        tb.shutdown();
        ta.shutdown();
    }

    #[test]
    fn tcp_local_delivery_short_circuits() {
        let t = TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![3, 4], vec![]))
            .expect("transport");
        t.send(3, 4, Packet::App(Num(5)));
        let (from, to, _) = drain_until_packet(&t, 2).expect("loopback");
        assert_eq!((from, to), (3, 4));
        t.shutdown();
    }

    #[test]
    fn tcp_reconnects_after_receiver_restart() {
        let ta = TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![0], vec![])).expect("a");
        let addr = ta.local_addr();
        let tb = TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![1], vec![(0, addr)]))
            .expect("b");
        tb.send(1, 0, Packet::App(Num(1)));
        assert!(drain_until_packet(&ta, 10).is_some());
        ta.shutdown();
        drop(ta);
        // Restart the receiver on the same address; the dialer must
        // reconnect with backoff and deliver again.
        let ta2 = TcpTransport::<Num>::start(TcpConfig::new(addr, vec![0], vec![])).expect("a2");
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut delivered = false;
        while std::time::Instant::now() < deadline {
            tb.send(1, 0, Packet::App(Num(2)));
            if drain_until_packet(&ta2, 1).is_some() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "dialer reconnected after receiver restart");
        assert!(tb.stats().connects >= 2);
        tb.shutdown();
        ta2.shutdown();
    }

    /// A dial that reaches the peer before its listener binds retries
    /// soon after the bind, not one long backoff later: a cluster whose
    /// processes start together connects in milliseconds.
    #[test]
    fn dial_before_bind_delivers_soon_after_the_bind() {
        let addr = std::net::TcpListener::bind(local(0)).expect("probe").local_addr().expect("addr");
        let tb = TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![1], vec![(0, addr)]))
            .expect("b");
        tb.send(1, 0, Packet::App(Num(9)));
        std::thread::sleep(Duration::from_millis(5));
        let ta = TcpTransport::<Num>::start(TcpConfig::new(addr, vec![0], vec![])).expect("a");
        let bound = Instant::now();
        assert!(drain_until_packet(&ta, 10).is_some(), "frame delivered");
        let after = bound.elapsed();
        assert!(after < Duration::from_millis(25), "arrived {after:?} after the bind");
        tb.shutdown();
        ta.shutdown();
    }

    #[test]
    fn handshake_rejects_cluster_mismatch() {
        let mut cfg_a = TcpConfig::new(local(0), vec![0], vec![]);
        cfg_a.cluster = ahl_crypto::sha256(b"cluster-a");
        let ta = TcpTransport::<Num>::start(cfg_a).expect("a");
        let mut cfg_b = TcpConfig::new(local(0), vec![1], vec![(0, ta.local_addr())]);
        cfg_b.cluster = ahl_crypto::sha256(b"cluster-b");
        let tb = TcpTransport::<Num>::start(cfg_b).expect("b");
        tb.send(1, 0, Packet::App(Num(9)));
        // Give the dialer time to attempt handshakes; nothing may arrive.
        assert!(drain_until_packet(&ta, 2).is_none(), "mismatched cluster must not deliver");
        assert!(ta.stats().handshake_failures >= 1);
        tb.shutdown();
        ta.shutdown();
    }

    #[test]
    fn refused_dialers_do_not_leak_accepted_streams() {
        let cluster = ahl_crypto::sha256(b"cluster-a");
        let mut cfg_a = TcpConfig::new(local(0), vec![0], vec![]);
        cfg_a.cluster = cluster;
        let ta = TcpTransport::<Num>::start(cfg_a).expect("a");
        // One dialer that belongs (a live reader stays) and one that keeps
        // retrying with the wrong cluster digest.
        let mut cfg_ok = TcpConfig::new(local(0), vec![1], vec![(0, ta.local_addr())]);
        cfg_ok.cluster = cluster;
        let ok = TcpTransport::<Num>::start(cfg_ok).expect("ok");
        let mut cfg_bad = TcpConfig::new(local(0), vec![2], vec![(0, ta.local_addr())]);
        cfg_bad.cluster = ahl_crypto::sha256(b"cluster-b");
        let bad = TcpTransport::<Num>::start(cfg_bad).expect("bad");
        ok.send(1, 0, Packet::App(Num(1)));
        assert!(drain_until_packet(&ta, 10).is_some(), "the member's stream is up");
        assert!(
            eventually(20, || ta.stats().handshake_failures >= 4),
            "the wrong-cluster dialer retried"
        );
        let tracked = || ta.accepted.lock().expect("accepted lock").len();
        assert!(
            eventually(5, || tracked() == 1),
            "tracked {} streams for 1 live reader",
            tracked()
        );
        bad.shutdown();
        ok.shutdown();
        ta.shutdown();
    }

    #[test]
    fn bounded_queue_drops_overflow_while_disconnected() {
        // Peer address that nothing listens on: frames pile up in the
        // bounded queue and overflow is counted.
        let mut cfg = TcpConfig::new(local(0), vec![0], vec![(1, local(1))]);
        cfg.queue_capacity = 4;
        let t = TcpTransport::<Num>::start(cfg).expect("t");
        for i in 0..20 {
            t.send(0, 1, Packet::App(Num(i)));
        }
        let s = t.stats();
        assert!(s.tx_dropped >= 16 - 4, "tx_dropped = {}", s.tx_dropped);
        t.shutdown();
    }

    #[test]
    fn send_all_burst_arrives_complete_and_fifo_per_pair() {
        const PER_PAIR: u64 = 2_500;
        let ta =
            TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![0, 1], vec![])).expect("a");
        let addr = ta.local_addr();
        let mut cfg = TcpConfig::new(local(0), vec![2, 3], vec![(0, addr), (1, addr)]);
        cfg.queue_capacity = 1 << 15;
        let tb = TcpTransport::<Num>::start(cfg).expect("b");
        let mut batch = Vec::new();
        for n in 0..PER_PAIR {
            for from in [2, 3] {
                for to in [0, 1] {
                    batch.push((from, to, Packet::App(Num(n))));
                }
            }
        }
        tb.send_all(&mut batch);
        assert!(batch.is_empty());
        let total = 4 * PER_PAIR as usize;
        let mut got = Vec::new();
        let mut evs = VecDeque::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while got.len() < total && Instant::now() < deadline {
            ta.recv_all(Duration::from_millis(100), &mut evs);
            got.extend(evs.drain(..).filter_map(|ev| match ev {
                NetEvent::Packet { from, to, body: Packet::App(Num(n)) } => Some((from, to, n)),
                _ => None,
            }));
        }
        assert_eq!(got.len(), total, "every frame of the burst arrives");
        for from in [2, 3] {
            for to in [0, 1] {
                let seq: Vec<u64> =
                    got.iter().filter(|p| (p.0, p.1) == (from, to)).map(|p| p.2).collect();
                assert_eq!(seq, (0..PER_PAIR).collect::<Vec<_>>(), "FIFO for {from} -> {to}");
            }
        }
        let s = tb.stats();
        assert_eq!((s.sent, s.tx_dropped, s.tx_failed), (total as u64, 0, 0));
        tb.shutdown();
        ta.shutdown();
    }

    #[test]
    fn frames_are_conserved_with_a_small_queue_and_a_dead_peer() {
        // Reserve an address, then leave nothing listening on it.
        let probe =
            TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![0], vec![])).expect("probe");
        let addr = probe.local_addr();
        probe.shutdown();
        drop(probe);
        let mut cfg = TcpConfig::new(local(0), vec![1], vec![(0, addr)]);
        cfg.queue_capacity = 4;
        let tb = TcpTransport::<Num>::start(cfg).expect("b");
        let burst = |tb: &TcpTransport<Num>, base: u64| {
            let mut batch: Vec<_> = (0..10).map(|i| (1, 0, Packet::App(Num(base + i)))).collect();
            tb.send_all(&mut batch);
        };
        // While the peer is dead, the queue keeps its first 4 frames and
        // every later one is dropped.
        for b in 0..50 {
            burst(&tb, 10 * b);
        }
        let s = tb.stats();
        assert_eq!((s.sent, s.tx_dropped), (500, 496));
        // The peer comes up; the queued frames and more bursts flow.
        let ta = TcpTransport::<Num>::start(TcpConfig::new(addr, vec![0], vec![])).expect("a");
        assert!(eventually(20, || ta.stats().received >= 4), "queued frames delivered");
        for b in 50..100 {
            burst(&tb, 10 * b);
        }
        let balanced = || {
            let s = tb.stats();
            s.sent == ta.stats().received + s.tx_dropped + s.tx_failed
        };
        assert!(eventually(20, balanced), "{:?} vs received {}", tb.stats(), ta.stats().received);
        std::thread::sleep(Duration::from_millis(200));
        assert!(balanced(), "stays balanced once traffic stops");
        assert_eq!(tb.stats().sent, 1000);
        tb.shutdown();
        ta.shutdown();

        // A failed batched write loses, and counts, every frame it carried.
        struct Broken;
        impl IoWrite for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let stats = StatCells::default();
        let mut out = vec![0u8; 64];
        assert!(!write_batch(&mut Broken, &mut out, 7, &stats));
        assert_eq!(stats.snapshot().tx_failed, 7);
        assert!(out.is_empty());
    }

    /// Four frames, one longer than the 16-byte buffer the reader tests
    /// start from, framed back to back.
    fn sample_frames() -> (Vec<u8>, Vec<usize>, Vec<String>) {
        let pkts: Vec<Outgoing<Num>> = vec![
            (5, 0, Packet::App(Num(1))),
            (
                5,
                1,
                Packet::Control(Control::StatusReply {
                    height: 9,
                    digest: Hash::ZERO,
                    committed: 3,
                }),
            ),
            (6, 0, Packet::App(Num(2))),
            (6, 1, Packet::Control(Control::Status)),
        ];
        let mut fw = FrameWriter::default();
        for (from, to, body) in &pkts {
            fw.push(*from, *to, body);
        }
        let (bytes, starts) = fw.finish();
        let want = pkts.iter().map(|(f, t, b)| format!("{f} {t} {b:?}")).collect();
        (bytes, starts, want)
    }

    fn describe(evs: &[NetEvent<Num>]) -> Vec<String> {
        evs.iter()
            .map(|ev| match ev {
                NetEvent::Packet { from, to, body } => format!("{from} {to} {body:?}"),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn in_place_framing_matches_encode_frame_of_encode_payload() {
        let pkts: Vec<Outgoing<Num>> = vec![
            (3, 7, Packet::App(Num(u64::MAX))),
            (
                7,
                3,
                Packet::Control(Control::StatusReply {
                    height: 1,
                    digest: ahl_crypto::sha256(b"d"),
                    committed: 2,
                }),
            ),
            (0, 1, Packet::Control(Control::Shutdown)),
        ];
        let mut fw = FrameWriter::default();
        let mut want = Vec::new();
        let mut want_starts = Vec::new();
        for (from, to, body) in &pkts {
            let mut one = FrameWriter::default();
            one.push(*from, *to, body);
            let reference = encode_frame(&encode_payload(*from, *to, body));
            assert_eq!(one.finish().0, reference, "single frame");
            fw.push(*from, *to, body);
            want_starts.push(want.len());
            want.extend_from_slice(&reference);
        }
        assert_eq!(fw.finish(), (want, want_starts), "frames back to back");
    }

    #[test]
    fn reader_decodes_frames_split_at_every_byte_boundary() {
        let (bytes, _, want) = sample_frames();
        for cut in 0..=bytes.len() {
            let mut r = (&bytes[..cut]).chain(&bytes[cut..]);
            let mut rb = ReadBuf::new(16);
            let stats = StatCells::default();
            let mut got = Vec::new();
            loop {
                assert!(drain_frames::<Num>(&mut rb, &mut got, &stats), "cut at {cut}");
                if rb.fill(&mut r).expect("in-memory read") == 0 {
                    break;
                }
            }
            assert_eq!(describe(&got), want, "cut at {cut}");
            assert_eq!(stats.snapshot().rx_rejected, 0);
        }
    }

    #[test]
    fn bad_crc_mid_buffer_delivers_the_frames_before_it_then_drops_the_stream() {
        let ta =
            TcpTransport::<Num>::start(TcpConfig::new(local(0), vec![0, 1], vec![])).expect("a");
        let mut s = TcpStream::connect(ta.local_addr()).expect("dial");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let hello = Hello { version: WIRE_VERSION, sender: 5, cluster: Hash::ZERO };
        s.write_all(&encode_frame(&hello.to_vec())).expect("hello");
        let mut ack = [0u8; 1];
        s.read_exact(&mut ack).expect("ack");
        assert_eq!(ack[0], HELLO_ACK);
        let (mut bytes, starts, want) = sample_frames();
        bytes[starts[2] + 8] ^= 0xFF; // third frame's payload, not its header
        s.write_all(&bytes).expect("one write");
        let mut evs = Vec::new();
        let down = eventually(10, || {
            evs.extend(ta.recv_timeout(Duration::from_millis(10)));
            matches!(evs.last(), Some(NetEvent::PeerDown(5)))
        });
        assert!(down, "the stream is dropped: {evs:?}");
        assert!(matches!(evs[0], NetEvent::PeerUp(5)));
        assert_eq!(describe(&evs[1..evs.len() - 1]), want[..2]);
        let st = ta.stats();
        assert_eq!((st.received, st.rx_rejected), (2, 1));
        assert!(matches!(s.read(&mut ack), Ok(0) | Err(_)), "the acceptor closed the stream");
        ta.shutdown();
    }
}
