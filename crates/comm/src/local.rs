//! In-process backend: crossbeam channels, one per endpoint.
//!
//! This preserves the runtime's original interconnect exactly: payloads
//! *move* through an unbounded channel (a tensor is never copied or
//! serialized), sends never block, and a dead peer is detected through the
//! channel disconnecting. On top of that the endpoint adds the keyed inbox
//! — messages drained off the channel are parked under their [`MsgKey`]
//! until the owning worker asks for that exact key — which is what makes
//! receive order independent of delivery order.
//!
//! # Sessions and chaos on a lossless medium
//!
//! To keep the two backends behaviourally aligned, local parcels carry the
//! same per-link sequence numbers as TCP frames, and the receive side
//! dedups on `(sender, seq)` — a duplicated delivery is absorbed exactly
//! once, bit-for-bit, just as the TCP session layer guarantees. Because a
//! channel cannot actually lose or sever anything, an installed
//! [`NetChaos`] plan degrades gracefully: `duplicate` applies natively
//! (the parcel is sent twice), `slow` sleeps, while `drop`, `reorder`, and
//! `break` all become **deferred delivery** — the parcel is held back and
//! flushed after the next send on the same link (or when the endpoint is
//! dropped), so chaos perturbs ordering and multiplicity but never
//! completeness. Unlike TCP there is no retransmit machinery here; dedup
//! alone is what keeps delivery exactly-once.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::chaos::{LinkChaos, NetChaos};
use crate::transport::{poll_deadline, CommError, MsgKey, Payload, Rank, Transport};

/// Builds the full set of in-process endpoints for one fabric.
pub struct LocalFabric;

impl LocalFabric {
    /// Create `world` fully connected endpoints. Endpoint `k` of the
    /// returned vector has rank `k`; move each into its worker thread
    /// (behind an `Arc<dyn Transport>`). Dropping an endpoint disconnects
    /// its channel, so peers sending to a dead rank get
    /// [`CommError::PeerGone`] rather than buffering forever.
    #[allow(clippy::new_ret_no_self)] // factory for the whole fabric, not one endpoint
    pub fn new(world: u32) -> Vec<LocalEndpoint> {
        let (txs, rxs): (Vec<Sender<Parcel>>, Vec<Receiver<Parcel>>) =
            (0..world).map(|_| unbounded()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| LocalEndpoint {
                rank: rank as Rank,
                world,
                rx: Mutex::new(rx),
                tx: txs.clone(),
                inbox: Mutex::new(HashMap::new()),
                dedup: Mutex::new(HashMap::new()),
                chaos: None,
                links: (0..world)
                    .map(|_| Mutex::new(LinkState::default()))
                    .collect(),
                next_seq: (0..world).map(|_| AtomicU64::new(1)).collect(),
                sent: AtomicU64::new(0),
                received: AtomicU64::new(0),
                dup_dropped: AtomicU64::new(0),
            })
            .collect()
    }
}

/// One sequenced message: `(seq, sender, key, payload)`.
type Parcel = (u64, Rank, MsgKey, Payload);

/// Per-destination chaos state on the sender: the seeded event counter and
/// any parcels currently held back by a defer verdict.
#[derive(Default)]
struct LinkState {
    chaos: LinkChaos,
    held: VecDeque<Parcel>,
}

/// Receive-side dedup state per sender: highest contiguous sequence
/// delivered, plus the sparse set of sequences delivered ahead of it.
#[derive(Default)]
struct RecvTrack {
    watermark: u64,
    ahead: BTreeSet<u64>,
}

impl RecvTrack {
    /// True the first time `seq` is seen, false for any replay of it.
    fn fresh(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || self.ahead.contains(&seq) {
            return false;
        }
        self.ahead.insert(seq);
        while self.ahead.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }
}

/// One rank of a [`LocalFabric`].
pub struct LocalEndpoint {
    rank: Rank,
    world: u32,
    /// The stub crossbeam `Receiver` wraps `mpsc` and is `!Sync`; draining
    /// happens under this lock (uncontended: only the owning worker
    /// receives).
    rx: Mutex<Receiver<Parcel>>,
    tx: Vec<Sender<Parcel>>,
    inbox: Mutex<HashMap<MsgKey, VecDeque<Payload>>>,
    dedup: Mutex<HashMap<Rank, RecvTrack>>,
    chaos: Option<NetChaos>,
    links: Vec<Mutex<LinkState>>,
    next_seq: Vec<AtomicU64>,
    sent: AtomicU64,
    received: AtomicU64,
    dup_dropped: AtomicU64,
}

impl LocalEndpoint {
    /// Arm a seeded chaos plan on this endpoint's outbound links (before
    /// it is shared with its worker thread). See the module docs for how
    /// verdicts degrade on a lossless medium.
    pub fn install_chaos(&mut self, chaos: NetChaos) {
        if !chaos.is_empty() {
            self.chaos = Some(chaos);
        }
    }

    /// Duplicated parcels this endpoint has absorbed on receive.
    pub fn dup_dropped(&self) -> u64 {
        self.dup_dropped.load(Ordering::Relaxed)
    }

    fn push(&self, to: Rank, parcel: Parcel) -> Result<(), CommError> {
        self.tx
            .get(to as usize)
            .ok_or(CommError::PeerGone { to })?
            .send(parcel)
            .map_err(|_| CommError::PeerGone { to })
    }

    /// Deliver everything a defer verdict is still holding back for `to`.
    fn flush_held(&self, to: Rank) {
        let mut held = {
            let mut link = self.links[to as usize].lock();
            std::mem::take(&mut link.held)
        };
        while let Some(parcel) = held.pop_front() {
            let _ = self.push(to, parcel);
        }
    }

    /// Pull everything already delivered off the channel into the keyed
    /// inbox; returns `true` when at least one message was drained.
    fn drain(&self) -> bool {
        let rx = self.rx.lock();
        let mut progressed = false;
        while let Ok((seq, from, key, payload)) = rx.try_recv() {
            progressed = true;
            if seq != 0 && !self.dedup.lock().entry(from).or_default().fresh(seq) {
                self.dup_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.received
                .fetch_add(payload.wire_bytes(), Ordering::Relaxed);
            self.inbox.lock().entry(key).or_default().push_back(payload);
        }
        progressed
    }

    fn take(&self, key: &MsgKey) -> Option<Payload> {
        let mut inbox = self.inbox.lock();
        let q = inbox.get_mut(key)?;
        let payload = q.pop_front();
        if q.is_empty() {
            inbox.remove(key);
        }
        payload
    }

    /// Non-blocking receive: one keyed-inbox lookup (draining anything
    /// already delivered) without the deadline poll loop. A `None` result
    /// consumes nothing, which is what lets the [`crate::modelcheck`]
    /// explorer drive an endpoint one step at a time.
    pub fn try_recv(&self, key: &MsgKey) -> Option<Payload> {
        if let Some(p) = self.take(key) {
            return Some(p);
        }
        self.drain();
        self.take(key)
    }
}

impl Transport for LocalEndpoint {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn world(&self) -> u32 {
        self.world
    }

    fn send(&self, to: Rank, key: MsgKey, payload: Payload) -> Result<(), CommError> {
        if to as usize >= self.tx.len() {
            return Err(CommError::PeerGone { to });
        }
        self.sent.fetch_add(payload.wire_bytes(), Ordering::Relaxed);
        let seq = self.next_seq[to as usize].fetch_add(1, Ordering::Relaxed);
        let parcel: Parcel = (seq, self.rank, key, payload);
        let Some(plan) = &self.chaos else {
            return self.push(to, parcel);
        };
        let verdict = {
            let mut link = self.links[to as usize].lock();
            plan.next(to, &mut link.chaos)
        };
        if let Some(d) = verdict.delay {
            std::thread::sleep(d);
        }
        if verdict.drop || verdict.reorder || verdict.break_link {
            // Lossless medium: defer behind the next send on this link
            // (releasing whatever the previous verdict held back).
            let prior = {
                let mut link = self.links[to as usize].lock();
                let prior = std::mem::take(&mut link.held);
                link.held.push_back(parcel);
                prior
            };
            for held in prior {
                let _ = self.push(to, held);
            }
            return Ok(());
        }
        let dup = verdict.duplicate.then(|| parcel.clone());
        self.push(to, parcel)?;
        if let Some(copy) = dup {
            // Receive-side dedup absorbs the replay.
            self.push(to, copy)?;
        }
        self.flush_held(to);
        Ok(())
    }

    fn recv_deadline(&self, key: MsgKey, timeout: Duration) -> Result<Payload, CommError> {
        if let Some(p) = self.take(&key) {
            return Ok(p);
        }
        self.drain();
        if let Some(p) = self.take(&key) {
            return Ok(p);
        }
        poll_deadline(timeout, || {
            self.drain();
            self.take(&key)
        })
        .ok_or(CommError::Timeout {
            key: key.describe(),
            waited: timeout,
        })
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    fn bytes_received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }
}

impl Drop for LocalEndpoint {
    fn drop(&mut self) {
        // A plan that deferred the final parcel on a link must still
        // deliver it: completeness survives chaos.
        for to in 0..self.tx.len() as Rank {
            self.flush_held(to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(micro: u64) -> MsgKey {
        MsgKey::Act {
            replica: 0,
            stage: 0,
            micro,
        }
    }

    #[test]
    fn keyed_receive_tolerates_reordering() {
        let eps = LocalFabric::new(2);
        let (a, b) = (&eps[0], &eps[1]);
        a.send(1, key(1), Payload::Flat(vec![1.0])).unwrap();
        a.send(1, key(0), Payload::Flat(vec![0.0])).unwrap();
        // b asks for micro 0 first even though micro 1 arrived first.
        let p0 = b.recv_deadline(key(0), Duration::from_secs(1)).unwrap();
        let p1 = b.recv_deadline(key(1), Duration::from_secs(1)).unwrap();
        assert_eq!(p0.into_flat(), vec![0.0]);
        assert_eq!(p1.into_flat(), vec![1.0]);
        assert!(a.bytes_sent() > 0);
        assert_eq!(b.bytes_received(), a.bytes_sent());
    }

    #[test]
    fn missing_message_times_out_with_key_description() {
        let eps = LocalFabric::new(2);
        let err = eps[1]
            .recv_deadline(key(7), Duration::from_millis(30))
            .unwrap_err();
        match err {
            CommError::Timeout { key, waited } => {
                assert_eq!(key, "act m7@s0/r0");
                assert_eq!(waited, Duration::from_millis(30));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn dead_peer_surfaces_as_peer_gone() {
        let mut eps = LocalFabric::new(2);
        drop(eps.remove(1));
        let err = eps[0].send(1, key(0), Payload::Flat(vec![])).unwrap_err();
        assert_eq!(err, CommError::PeerGone { to: 1 });
    }

    #[test]
    fn concurrent_producers_one_consumer() {
        let mut eps = LocalFabric::new(3);
        let sink = Arc::new(eps.remove(0));
        let producers: Vec<_> = eps.into_iter().map(Arc::new).collect();
        let handles: Vec<_> = producers
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    for m in 0..16u64 {
                        let k = MsgKey::Coll {
                            tag: 0,
                            round: m,
                            from: ep.rank(),
                        };
                        ep.send(0, k, Payload::Flat(vec![ep.rank() as f32]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for m in 0..16u64 {
            for from in 1..3u32 {
                let k = MsgKey::Coll {
                    tag: 0,
                    round: m,
                    from,
                };
                let v = sink.recv_deadline(k, Duration::from_secs(2)).unwrap();
                assert_eq!(v.into_flat(), vec![from as f32]);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Chaos duplication on a local link: every duplicate is absorbed by
    /// receive-side dedup, so delivery stays exactly-once.
    #[test]
    fn duplicated_parcels_are_deduped_exactly_once() {
        let mut eps = LocalFabric::new(2);
        eps[0].install_chaos(NetChaos::new(3).with_duplicate(1.0));
        let n = 12u64;
        for m in 0..n {
            eps[0]
                .send(1, key(m), Payload::Flat(vec![m as f32]))
                .unwrap();
        }
        for m in 0..n {
            let v = eps[1]
                .recv_deadline(key(m), Duration::from_secs(1))
                .unwrap()
                .into_flat();
            assert_eq!(v, vec![m as f32]);
        }
        // Nothing extra is left behind, and the dedup visibly did work.
        for m in 0..n {
            assert!(eps[1]
                .recv_deadline(key(m), Duration::from_millis(20))
                .is_err());
        }
        assert_eq!(eps[1].dup_dropped(), n);
    }

    /// Chaos deferral (drop/reorder degrade to held-back delivery) never
    /// loses a parcel: the next send — or endpoint teardown — flushes it.
    #[test]
    fn deferred_parcels_are_flushed_not_lost() {
        let mut eps = LocalFabric::new(2);
        // Everything defers: each parcel is held until the next send, and
        // the final one until the sender is dropped.
        eps[0].install_chaos(NetChaos::new(5).with_flaky(1.0));
        let b = {
            let b = eps.remove(1);
            let a = eps.remove(0);
            for m in 0..8u64 {
                a.send(1, key(m), Payload::Flat(vec![m as f32])).unwrap();
            }
            drop(a); // flushes the last held parcel
            b
        };
        for m in 0..8u64 {
            let v = b
                .recv_deadline(key(m), Duration::from_secs(1))
                .unwrap()
                .into_flat();
            assert_eq!(v, vec![m as f32]);
        }
    }
}
