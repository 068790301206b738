//! The connection worker pool: a fixed number of serving threads behind
//! a bounded hand-off queue.
//!
//! PR 6's acceptor spawned one thread per connection — unbounded under a
//! connection flood, and a failed spawn silently dropped the peer. The
//! pool inverts that: `workers` threads are created once at boot, the
//! acceptor hands accepted sockets through a `sync_channel` of depth
//! `accept_queue`, and when every worker is busy *and* the queue is full
//! the acceptor immediately answers a typed `503 overloaded` and closes
//! — the hard connection limit is `workers + accept_queue`, and a flood
//! degrades into fast typed rejections instead of thread exhaustion.
//!
//! Workers poll the queue with a short timeout so they observe shutdown
//! and drain promptly; a connection that was queued before a drain began
//! but dequeued after it is answered with a typed `503 draining` rather
//! than served.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::write_json;
use crate::protocol::ErrorBody;
use crate::service::{serve_connection, EngineMsg, Mode, Shared};

/// How often an idle worker re-checks the shutdown flag.
const POOL_TICK: Duration = Duration::from_millis(50);

/// Everything a connection worker (or the watchdog, or the drain
/// coordinator) needs: the shared state and the engine's queue.
pub(crate) struct ConnContext {
    /// State shared with the engine thread.
    pub shared: Arc<Shared>,
    /// The engine's bounded request queue.
    pub tx: SyncSender<EngineMsg>,
}

/// The running pool: the dispatch side plus the worker handles.
pub(crate) struct ConnPool {
    tx: SyncSender<TcpStream>,
    workers: Vec<JoinHandle<()>>,
}

impl ConnPool {
    /// Boots `workers` serving threads behind a queue of depth
    /// `accept_queue`.
    pub fn spawn(
        workers: usize,
        accept_queue: usize,
        ctx: Arc<ConnContext>,
    ) -> std::io::Result<ConnPool> {
        let (tx, rx) = sync_channel::<TcpStream>(accept_queue);
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = rx.clone();
            let ctx = ctx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sprintd-worker-{i}"))
                .spawn(move || run_worker(&rx, &ctx))?;
            handles.push(handle);
        }
        Ok(ConnPool {
            tx,
            workers: handles,
        })
    }

    /// Hands a connection to the pool. Returns the stream back when the
    /// pool is at capacity so the acceptor can reject it with a typed
    /// status.
    pub fn try_dispatch(&self, stream: TcpStream) -> Result<(), TcpStream> {
        match self.tx.try_send(stream) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                Err(stream)
            }
        }
    }

    /// Joins every worker (callers set the shutdown flag first).
    pub fn join(self) {
        drop(self.tx);
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// One worker: pull connections, serve them to completion.
fn run_worker(rx: &Mutex<Receiver<TcpStream>>, ctx: &Arc<ConnContext>) {
    loop {
        if ctx.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Hold the lock only for the dequeue, never while serving.
        let next = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(_) => return,
            };
            guard.recv_timeout(POOL_TICK)
        };
        match next {
            Ok(stream) => {
                if ctx.shared.mode() == Mode::Draining {
                    reject(stream, 503, "draining", "service is draining");
                    ctx.shared
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::SeqCst);
                    continue;
                }
                ctx.shared.connections_active.fetch_add(1, Ordering::SeqCst);
                serve_connection(stream, ctx);
                ctx.shared.connections_active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Answers a connection the pool cannot serve with one typed error and
/// closes it. Bounded by a short write timeout so a slow peer cannot
/// stall the caller (the acceptor).
pub(crate) fn reject(stream: TcpStream, status: u16, kind: &'static str, message: &str) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut stream = stream;
    let body = ErrorBody::new(kind, message).to_json();
    let _ = write_json(&mut stream, status, &body, true);
}
