//! Per-connection reader loop + writer thread.
//!
//! The reader owns the protocol state machine: control requests
//! (`PING`, `LIST`, `METRICS`) are answered inline, `QUERY` frames pass
//! the connection gates and enter the scheduler. The writer thread is
//! the only thing that touches the outbound socket, fed by an mpsc
//! channel — executors finish at engine speed even when a client reads
//! slowly, and responses from pipelined queries may interleave in
//! completion order (the frame id is the correlation key).
//!
//! Error discipline mirrors [`ProtocolError::is_fatal`]: a payload-level
//! `Malformed` inside a well-formed frame gets a typed
//! [`WireError::Unsupported`] response and the connection stays usable;
//! a frame-level violation (bad magic, wrong version, oversized length)
//! means byte-stream sync is lost, so the server sends one final typed
//! error and closes. Either way the close path cancels the
//! connection's token, which stops its queued and running queries at
//! the next checkpoint.

use crate::frame::{read_frame, write_frame, FrameKind, ProtocolError};
use crate::wire::{self, WireError};
use crate::{Job, Outgoing, Shared};
use lgc_core::CancelToken;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
#[expect(
    clippy::disallowed_types,
    reason = "the per-connection in-flight cap, the shutdown flag it observes, and relaxed bumps of the serving counters"
)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

pub(crate) fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared
                .metrics
                .connections_closed
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let writer = thread::Builder::new()
        .name("lgc-conn-writer".into())
        .spawn(move || {
            let mut w = BufWriter::new(writer_stream);
            // Exits when every sender (reader + in-flight jobs) is gone,
            // or on the first write error (client vanished mid-reply).
            while let Ok((kind, id, payload)) = rx.recv() {
                if write_frame(&mut w, kind, id, &payload).is_err() {
                    break;
                }
                use std::io::Write as _;
                if w.flush().is_err() {
                    break;
                }
            }
        });
    let writer = match writer {
        Ok(t) => t,
        // Thread exhaustion: a connection with no writer cannot be
        // served — drop it (stream closes) instead of panicking the
        // accept path.
        Err(_) => return,
    };

    let cancel = CancelToken::new();
    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let mut reader = BufReader::new(stream);

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(ProtocolError::Closed) => break,
            Err(e) => {
                shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                if e.is_fatal() {
                    // Stream sync is lost: one best-effort typed error,
                    // then close.
                    let _ = tx.send((
                        FrameKind::Error,
                        0,
                        wire::encode_error(&WireError::Unsupported {
                            message: e.to_string(),
                        }),
                    ));
                    break;
                }
                continue;
            }
        };
        shared.metrics.frames_read.fetch_add(1, Ordering::Relaxed);
        match frame.kind {
            FrameKind::Ping => {
                let _ = tx.send((FrameKind::Pong, frame.id, Vec::new()));
            }
            FrameKind::List => {
                let names = shared.service.graph_names();
                let _ = tx.send((FrameKind::Names, frame.id, wire::encode_names(&names)));
            }
            FrameKind::Metrics => {
                let page = shared.metrics_page();
                let _ = tx.send((FrameKind::MetricsText, frame.id, page.into_bytes()));
            }
            FrameKind::Query => {
                handle_query(
                    shared,
                    &frame.payload,
                    frame.id,
                    &tx,
                    &cancel,
                    &conn_inflight,
                );
            }
            // A response kind arriving as a request: the frame is
            // well-formed, so answer typed and keep the stream open.
            FrameKind::Result
            | FrameKind::Error
            | FrameKind::MetricsText
            | FrameKind::Names
            | FrameKind::Pong => {
                shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = tx.send((
                    FrameKind::Error,
                    frame.id,
                    wire::encode_error(&WireError::Unsupported {
                        message: format!("response kind {:?} sent as a request", frame.kind),
                    }),
                ));
            }
        }
    }

    // Disconnect: stop this connection's queued and running queries.
    cancel.cancel();
    drop(tx);
    let _ = writer.join();
    // Shut the socket down explicitly: the acceptor keeps a clone of
    // this stream for shutdown plumbing, so dropping our handles alone
    // would never send FIN and a client waiting for EOF would hang.
    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
    shared
        .metrics
        .connections_closed
        .fetch_add(1, Ordering::Relaxed);
}

/// The connection-side gates for one `QUERY` frame; on success the job
/// enters the scheduler.
fn handle_query(
    shared: &Shared,
    payload: &[u8],
    frame_id: u32,
    tx: &mpsc::Sender<Outgoing>,
    cancel: &CancelToken,
    conn_inflight: &Arc<AtomicUsize>,
) {
    let reply_err = |e: &WireError| {
        let _ = tx.send((FrameKind::Error, frame_id, wire::encode_error(e)));
    };
    let req = match wire::decode_query_request(payload) {
        Ok(r) => r,
        Err(e) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            reply_err(&WireError::Unsupported {
                message: e.to_string(),
            });
            return;
        }
    };
    if shared.shutting_down.load(Ordering::Acquire) {
        reply_err(&WireError::ShuttingDown);
        return;
    }
    if shared.service.store(&req.tenant).is_none() {
        reply_err(&WireError::UnknownGraph {
            tenant: req.tenant.clone(),
        });
        return;
    }
    let class = req.priority;
    let slot = shared.metrics.class(&req.tenant, class);

    // Gate 1: per-connection in-flight cap.
    let cap = shared.config.conn_inflight_cap.max(1);
    let occupied = conn_inflight.fetch_add(1, Ordering::AcqRel);
    if occupied >= cap {
        conn_inflight.fetch_sub(1, Ordering::AcqRel);
        shared
            .metrics
            .shed_connection_cap
            .fetch_add(1, Ordering::Relaxed);
        slot.errored.fetch_add(1, Ordering::Relaxed);
        slot.shed.fetch_add(1, Ordering::Relaxed);
        reply_err(&WireError::QueueFull {
            queued: occupied as u64,
            cap: cap as u64,
            retry_after: Some(shared.retry_after(&req.tenant, class)),
        });
        return;
    }

    // Gate 2: the scheduler's bounded class queue.
    let tenant = req.tenant.clone();
    let job = Job {
        req,
        frame_id,
        enqueued: Instant::now(),
        reply: tx.clone(),
        cancel: cancel.clone(),
        conn_inflight: Arc::clone(conn_inflight),
    };
    if let Err((job, push_err)) = shared.sched.push(class, job) {
        job.conn_inflight.fetch_sub(1, Ordering::AcqRel);
        slot.errored.fetch_add(1, Ordering::Relaxed);
        match push_err {
            crate::sched::PushError::Full { queued, cap } => {
                shared
                    .metrics
                    .shed_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                slot.shed.fetch_add(1, Ordering::Relaxed);
                reply_err(&WireError::QueueFull {
                    queued: queued as u64,
                    cap: cap as u64,
                    retry_after: Some(shared.retry_after(&tenant, class)),
                });
            }
            crate::sched::PushError::ShutDown => reply_err(&WireError::ShuttingDown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use lgc_core::Service;
    use lgc_graph::gen;
    use std::io::Write as _;

    fn tiny_server() -> crate::RunningServer {
        let mut svc = Service::builder().threads(1).build();
        svc.add_graph("g", gen::two_cliques_bridge(6));
        Server::bind(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    #[test]
    fn garbage_bytes_get_a_typed_error_then_close() {
        let server = tiny_server();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // The server answers with one well-formed Error frame (typed
        // Unsupported), then closes the connection.
        let frame = read_frame(&mut &s).unwrap();
        assert_eq!(frame.kind, FrameKind::Error);
        let err = wire::decode_error(&frame.payload).unwrap();
        assert!(matches!(err, WireError::Unsupported { .. }));
        assert!(matches!(read_frame(&mut &s), Err(ProtocolError::Closed)));
        server.shutdown();
    }

    #[test]
    fn clean_disconnect_is_not_a_protocol_error() {
        let server = tiny_server();
        {
            let _s = TcpStream::connect(server.local_addr()).unwrap();
        }
        // Wait for the connection thread to notice the close.
        for _ in 0..200 {
            if server.metrics().connections_closed.load(Ordering::Relaxed) == 1 {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(
            server.metrics().connections_opened.load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            server.metrics().connections_closed.load(Ordering::Relaxed),
            1
        );
        assert_eq!(server.metrics().protocol_errors.load(Ordering::Relaxed), 0);
        server.shutdown();
    }
}
