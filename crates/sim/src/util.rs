//! Small future combinators the simulator code needs.
//!
//! The simulation deliberately avoids external async runtimes, so the few
//! combinators used by protocol code (`join_all`, quorum-style `first_k`)
//! live here.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::executor::{LocalBoxFuture, SimHandle};
use crate::sync::{mpsc, oneshot};
use crate::time::SimTime;

/// Deterministic virtual-time rate gate.
///
/// Each [`Pacer::tick`] admits one unit of work at most once per
/// `interval`: the first tick passes immediately, later ticks sleep until
/// their slot. Slots are anchored to the previous *admission* (not the
/// call instant), so a caller that falls behind does not burst to catch
/// up. Used to pace background shard migration so data movement spreads
/// over virtual time instead of completing in one instant.
///
/// # Examples
///
/// ```
/// use pcsi_sim::{Sim, util::Pacer};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(0);
/// let h = sim.handle();
/// let t = sim.block_on(async move {
///     let p = Pacer::new(h.clone(), Duration::from_micros(100));
///     for _ in 0..3 {
///         p.tick().await;
///     }
///     h.now()
/// });
/// // Ticks at 0µs, 100µs, 200µs.
/// assert_eq!(t.as_nanos(), 200_000);
/// ```
pub struct Pacer {
    handle: SimHandle,
    interval: Duration,
    next_slot: Cell<SimTime>,
}

impl Pacer {
    /// A pacer admitting one tick per `interval`, starting immediately.
    pub fn new(handle: SimHandle, interval: Duration) -> Self {
        Pacer {
            handle,
            interval,
            next_slot: Cell::new(SimTime::ZERO),
        }
    }

    /// Waits for the next admission slot.
    pub async fn tick(&self) {
        let now = self.handle.now();
        let slot = self.next_slot.get().max(now);
        self.next_slot.set(slot + self.interval);
        if slot > now {
            self.handle.sleep_until(slot).await;
        }
    }
}

/// Drives all `futures` concurrently and returns their outputs in input
/// order.
///
/// Unlike spawning, the futures run inside the caller's task; use
/// [`SimHandle::spawn`] when they must keep running past this call.
///
/// # Examples
///
/// ```
/// use pcsi_sim::{Sim, util::join_all};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(0);
/// let h = sim.handle();
/// let out = sim.block_on(async move {
///     let futs = (0..3u64).map(|i| {
///         let h = h.clone();
///         async move {
///             h.sleep(Duration::from_nanos(100 - i)).await;
///             i
///         }
///     });
///     join_all(futs).await
/// });
/// assert_eq!(out, vec![0, 1, 2]);
/// ```
pub fn join_all<T, F>(futures: impl IntoIterator<Item = F>) -> JoinAll<T>
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    JoinAll {
        futures: futures
            .into_iter()
            .map(|f| Some(Box::pin(f) as LocalBoxFuture<T>))
            .collect(),
        outputs: Vec::new(),
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<T> {
    futures: Vec<Option<LocalBoxFuture<T>>>,
    outputs: Vec<Option<T>>,
}

// `JoinAll` never pins its outputs; the inner futures are heap-pinned boxes.
impl<T> Unpin for JoinAll<T> {}

impl<T> Future for JoinAll<T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<T>> {
        let this = self.get_mut();
        if this.outputs.is_empty() {
            this.outputs.resize_with(this.futures.len(), || None);
        }
        let mut done = true;
        for (slot, out) in this.futures.iter_mut().zip(this.outputs.iter_mut()) {
            if let Some(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => done = false,
                }
            }
        }
        if done {
            Poll::Ready(
                this.outputs
                    .iter_mut()
                    .map(|o| o.take().expect("join_all output missing"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

/// Spawns all `futures` and resolves with the first `k` results in
/// completion order; the stragglers keep running detached.
///
/// This is the quorum-wait primitive: issue N replica requests, act on the
/// first R responses, let the rest land in the background (read repair).
///
/// # Panics
///
/// Panics if `k` exceeds the number of futures.
pub async fn first_k<T: 'static>(
    handle: &SimHandle,
    futures: Vec<LocalBoxFuture<T>>,
    k: usize,
) -> Vec<T> {
    assert!(
        k <= futures.len(),
        "first_k: k = {k} > {} futures",
        futures.len()
    );
    let (tx, mut rx) = mpsc::channel();
    for fut in futures {
        let tx = tx.clone();
        // Results travel over the channel; no JoinHandle needed.
        handle.spawn_detached(async move {
            // The receiver may already have its k results; ignore failure.
            let _ = tx.send(fut.await);
        });
    }
    drop(tx);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        match rx.recv().await {
            Some(v) => out.push(v),
            None => unreachable!("senders vanished before k results"),
        }
    }
    out
}

/// Races `fut` against a timer: `Some(output)` if the future completes
/// within `dur`, `None` otherwise.
///
/// On timeout the future is **not** cancelled — it was spawned as its own
/// task and keeps running detached. Callers racing an RPC must therefore
/// treat a `None` as *ambiguous* (the request may still take effect) and
/// lean on request-level idempotence when retrying.
///
/// The timeout is no task of its own but an alarm in the executor's
/// timer wheel, armed right after the racer's first poll for `now + dur`
/// (with `dur == 0` it rings at that point). The caller's waker sits in a
/// cell shared by both sides: whichever of the racer's completion and the
/// alarm comes first takes it out, wakes the caller, and so decides the
/// race. A racer whose first poll registers a timer for `now + dur`
/// therefore beats the alarm, and one that reaches that instant through a
/// later timer loses to it. Dropping the returned future empties the
/// cell, so the alarm later pops without waking anyone.
pub async fn deadline<T: 'static>(
    handle: &SimHandle,
    dur: Duration,
    fut: impl Future<Output = T> + 'static,
) -> Option<T> {
    let (tx, mut rx) = oneshot::channel();
    let waiter = Waiter(Rc::new(RefCell::new(None)));
    let cell = Rc::clone(&waiter.0);
    let h = handle.clone();
    handle.spawn_detached(async move {
        let mut fut = std::pin::pin!(fut);
        let mut first_poll = true;
        let out = poll_fn(|cx| {
            let poll = fut.as_mut().poll(cx);
            if std::mem::take(&mut first_poll) && poll.is_pending() {
                h.arm_alarm(dur, &cell);
            }
            poll
        })
        .await;
        let won = cell.borrow_mut().take();
        if let Some(waker) = won {
            let _ = tx.send(out);
            waker.wake();
        }
    });
    // The racer runs only after this first poll returns, so it finds the
    // caller's waker already in the cell.
    let mut registered = false;
    poll_fn(|cx| {
        if !std::mem::replace(&mut registered, true) {
            *waiter.0.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        if let Some(out) = rx.try_recv() {
            return Poll::Ready(Some(out));
        }
        match &mut *waiter.0.borrow_mut() {
            // Undecided: a wake from elsewhere in the caller's task.
            Some(waker) => {
                waker.clone_from(cx.waker());
                Poll::Pending
            }
            // The alarm took the waker.
            None => Poll::Ready(None),
        }
    })
    .await
}

/// The caller's side of a [`deadline`] race: holds the caller's waker
/// while the race is undecided, and empties it on drop so neither the
/// alarm nor the racer wakes a caller that is gone.
struct Waiter(Rc<RefCell<Option<Waker>>>);

impl Drop for Waiter {
    fn drop(&mut self) {
        self.0.borrow_mut().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn join_all_empty() {
        let mut sim = Sim::new(0);
        let out: Vec<u32> = sim.block_on(join_all(Vec::<LocalBoxFuture<u32>>::new()));
        assert!(out.is_empty());
    }

    #[test]
    fn join_all_preserves_order_despite_timing() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let futs: Vec<_> = [30u64, 10, 20]
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    let h = h.clone();
                    async move {
                        h.sleep(Duration::from_nanos(d)).await;
                        i
                    }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn first_k_returns_fastest() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let futs: Vec<LocalBoxFuture<u64>> = [300u64, 100, 200, 50]
                .into_iter()
                .map(|d| {
                    let h = h.clone();
                    Box::pin(async move {
                        h.sleep(Duration::from_nanos(d)).await;
                        d
                    }) as LocalBoxFuture<u64>
                })
                .collect();
            first_k(&h, futs, 2).await
        });
        assert_eq!(out, vec![50, 100]);
    }

    #[test]
    fn first_k_all() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let futs: Vec<LocalBoxFuture<u32>> = (0..3)
                .map(|i: u32| Box::pin(async move { i }) as LocalBoxFuture<u32>)
                .collect();
            first_k(&h, futs, 3).await
        });
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn deadline_passes_through_fast_future() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let inner = h.clone();
            deadline(&h, Duration::from_micros(100), async move {
                inner.sleep(Duration::from_micros(10)).await;
                7u32
            })
            .await
        });
        assert_eq!(out, Some(7));
    }

    #[test]
    fn deadline_times_out_slow_future() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let inner = h.clone();
            deadline(&h, Duration::from_micros(10), async move {
                inner.sleep(Duration::from_micros(100)).await;
                7u32
            })
            .await
        });
        assert_eq!(out, None);
    }

    #[test]
    fn deadline_loser_keeps_running_detached() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let (done_tx, mut done_rx) = mpsc::channel();
        let out = sim.block_on({
            let h = h.clone();
            async move {
                let inner = h.clone();
                let timed = deadline(&h, Duration::from_micros(10), async move {
                    inner.sleep(Duration::from_micros(100)).await;
                    let _ = done_tx.send(42u32);
                })
                .await;
                assert!(timed.is_none());
                // The loser still completes after its own sleep elapses.
                done_rx.recv().await
            }
        });
        assert_eq!(out, Some(42));
    }

    /// Runs `fut` as the root and counts how often the root task is
    /// polled.
    fn block_on_counting<T: 'static>(
        sim: &mut Sim,
        fut: impl Future<Output = T> + 'static,
    ) -> (T, u32) {
        let polls = Rc::new(Cell::new(0));
        let counter = Rc::clone(&polls);
        let mut fut = Box::pin(fut);
        let out = sim.block_on(poll_fn(move |cx| {
            counter.set(counter.get() + 1);
            fut.as_mut().poll(cx)
        }));
        (out, polls.get())
    }

    #[test]
    fn a_won_deadline_leaves_no_task_and_its_alarm_polls_nothing() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on({
            let h = h.clone();
            async move {
                let before = h.live_tasks();
                let inner = h.clone();
                let out = deadline(&h, Duration::from_micros(100), async move {
                    inner.sleep(Duration::from_micros(10)).await;
                    7u32
                })
                .await;
                assert_eq!(h.live_tasks(), before, "the racer has ended");
                out
            }
        });
        assert_eq!(out, Some(7));
        // Advance past the expiry: the cancelled alarm pops on the way,
        // but only the root's own two polls happen.
        let polls = sim.poll_count();
        sim.block_on({
            let h = h.clone();
            async move { h.sleep(Duration::from_micros(200)).await }
        });
        assert_eq!(sim.poll_count() - polls, 2);
    }

    #[test]
    fn a_tie_at_the_expiry_goes_to_the_earlier_timer() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let dur = Duration::from_micros(10);
        let (first_poll_timer, later_timer) = sim.block_on(async move {
            // The racer's first poll registers its timer for `now + dur`
            // before the alarm is armed: the racer wins.
            let inner = h.clone();
            let first_poll_timer = deadline(&h, dur, async move {
                inner.sleep(dur).await;
                1u32
            })
            .await;
            // The racer reaches `now + dur` through a timer registered
            // after the alarm: the timeout wins.
            let inner = h.clone();
            let later_timer = deadline(&h, dur, async move {
                inner.sleep(dur / 2).await;
                inner.sleep(dur / 2).await;
                2u32
            })
            .await;
            (first_poll_timer, later_timer)
        });
        assert_eq!(first_poll_timer, Some(1));
        assert_eq!(later_timer, None);
    }

    #[test]
    fn a_zero_deadline_admits_only_a_first_poll_completion() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let (ready, yielded) = sim.block_on(async move {
            let ready = deadline(&h, Duration::ZERO, async { 1u32 }).await;
            // The racer wakes itself and completes on its second poll,
            // which runs before the caller's: still a timeout.
            let inner = h.clone();
            let yielded = deadline(&h, Duration::ZERO, async move {
                inner.yield_now().await;
                2u32
            })
            .await;
            (ready, yielded)
        });
        assert_eq!(ready, Some(1));
        assert_eq!(yielded, None);
    }

    #[test]
    fn a_dropped_deadline_wakes_nobody_later() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let (out, polls) = block_on_counting(&mut sim, async move {
            let inner = h.clone();
            let raced = deadline(&h, Duration::from_micros(10), async move {
                inner.sleep(Duration::from_micros(100)).await;
            });
            // The shorter timeout drops the pending deadline future at
            // 5 µs; neither its alarm (10 µs) nor its racer (100 µs) may
            // wake the root afterwards.
            let out = h.timeout(Duration::from_micros(5), raced).await;
            h.sleep(Duration::from_micros(200)).await;
            out
        });
        assert_eq!(out, Err(crate::TimeoutError));
        // The first poll, the 5 µs timeout, the end of the 200 µs sleep.
        assert_eq!(polls, 3);
    }

    #[test]
    fn pacer_spaces_ticks_and_absorbs_lateness() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let times = sim.block_on({
            let h = h.clone();
            async move {
                let p = Pacer::new(h.clone(), Duration::from_micros(10));
                let mut times = Vec::new();
                p.tick().await;
                times.push(h.now().as_nanos());
                p.tick().await;
                times.push(h.now().as_nanos());
                // Fall behind by several intervals, then tick twice: the
                // first passes immediately (no burst of owed slots), the
                // second is spaced a full interval after it.
                h.sleep(Duration::from_micros(50)).await;
                p.tick().await;
                times.push(h.now().as_nanos());
                p.tick().await;
                times.push(h.now().as_nanos());
                times
            }
        });
        assert_eq!(times, vec![0, 10_000, 60_000, 70_000]);
    }

    #[test]
    #[should_panic(expected = "first_k")]
    fn first_k_rejects_bad_k() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.block_on(async move {
            let _ = first_k::<u32>(&h, Vec::new(), 1).await;
        });
    }
}
