//! [`Timed`]: a [`Channel`] adapter that times every round trip the open
//! side makes into the wrapped channel, as the client sees it.

use crate::spans::SpanLog;
use hps_ir::{ComponentId, FragLabel, Value};
use hps_runtime::{CallReply, Channel, PendingCall, RuntimeError, TransportStats};
use std::time::Instant;

/// Frames kept per adapter for the wire codec measurement.
const MAX_FRAMES: usize = 4096;

/// One round trip as it crossed the channel.
pub struct Frame {
    /// Sent as a batch (`call_batch`) rather than a single `call`.
    pub batch: bool,
    pub calls: Vec<PendingCall>,
    pub replies: Vec<CallReply>,
}

/// Spans and frames a traced run records at the channel boundary.
pub struct ChanTrace {
    pub log: SpanLog,
    /// Span the next channel spans nest under (the op's `interp.run`).
    pub parent: Option<usize>,
    pub op: u64,
    /// Round trips carried, for the wire codec timing.
    pub frames: Vec<Frame>,
}

/// Times each `call`/`call_batch` and counts round trips, logical calls
/// and reported server cost. With a [`ChanTrace`] it also records spans
/// (releases included) and the frames it carried.
pub struct Timed<C> {
    pub inner: C,
    /// Wall nanoseconds of each round trip.
    pub rtt_ns: Vec<u64>,
    pub round_trips: u64,
    pub calls: u64,
    pub server_cost: u64,
    pub trace: Option<ChanTrace>,
}

impl<C: Channel> Timed<C> {
    pub fn new(inner: C) -> Timed<C> {
        Timed {
            inner,
            rtt_ns: Vec::new(),
            round_trips: 0,
            calls: 0,
            server_cost: 0,
            trace: None,
        }
    }

    fn round_trip<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut C) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let span = self
            .trace
            .as_mut()
            .map(|t| t.log.open(name, t.parent, t.op));
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.rtt_ns.push(started.elapsed().as_nanos() as u64);
        if let (Some(t), Some(id)) = (self.trace.as_mut(), span) {
            t.log.close(id);
        }
        self.round_trips += 1;
        out
    }

    /// Counts a completed round trip; traced runs also keep its frame
    /// (built lazily, so untraced runs allocate nothing here).
    fn count(
        &mut self,
        batch: bool,
        replies: &[CallReply],
        frame: impl FnOnce() -> Vec<PendingCall>,
    ) {
        self.calls += replies.len() as u64;
        self.server_cost += replies.iter().map(|r| r.server_cost).sum::<u64>();
        if let Some(t) = self.trace.as_mut() {
            if t.frames.len() < MAX_FRAMES {
                t.frames.push(Frame {
                    batch,
                    calls: frame(),
                    replies: replies.to_vec(),
                });
            }
        }
    }
}

impl<C: Channel> Channel for Timed<C> {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        let reply = self.round_trip("channel.call", |c| c.call(component, key, label, args))?;
        self.count(false, &[reply], || {
            vec![PendingCall {
                component,
                key,
                label,
                args: args.to_vec(),
            }]
        });
        Ok(reply)
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        let replies = self.round_trip("channel.call_batch", |c| c.call_batch(calls))?;
        self.count(true, &replies, || calls.to_vec());
        Ok(replies)
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        let Some(t) = self.trace.as_mut() else {
            return self.inner.release(component, key);
        };
        let id = t.log.open("channel.release", t.parent, t.op);
        let out = self.inner.release(component, key);
        t.log.close(id);
        out
    }

    fn interactions(&self) -> u64 {
        self.inner.interactions()
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}
