//! Live monitoring endpoint.
//!
//! A std-`TcpListener` text endpoint — no async runtime, no HTTP
//! crate, offline-friendly. The round loop (via the runner's
//! per-round callback) publishes a rendered Prometheus-style
//! exposition string into a shared slot; a background thread answers
//! every connection with the latest snapshot as an `HTTP/1.0 200`
//! response, so `curl http://addr/` works mid-run.
//!
//! Publishing allocates (it renders a string), which is why the
//! monitor is driven from the scenario runner's callback and never
//! armed inside the zero-alloc round itself.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Inner {
    body: Mutex<String>,
    stop: AtomicBool,
}

/// Handle to a running monitor server. Dropping it shuts the server
/// down.
pub struct MonitorHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
}

/// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
/// serve the latest published snapshot to every connection.
pub fn serve(addr: &str) -> std::io::Result<MonitorHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let inner = Arc::new(Inner {
        body: Mutex::new(String::from(
            "# cs-obs monitor: no snapshot published yet\n",
        )),
        stop: AtomicBool::new(false),
    });
    let served = Arc::clone(&inner);
    std::thread::Builder::new()
        .name("cs-obs-monitor".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if served.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut s) = stream else { continue };
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                // Drain (best-effort) whatever request line arrived; the
                // response is the same for every path.
                let mut req = [0u8; 1024];
                let _ = s.read(&mut req);
                let body = served.body.lock().map(|b| b.clone()).unwrap_or_default();
                let resp = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = s.write_all(resp.as_bytes());
            }
        })?;
    Ok(MonitorHandle { inner, addr: local })
}

impl MonitorHandle {
    /// Replace the served snapshot.
    pub fn publish(&self, body: String) {
        if let Ok(mut slot) = self.inner.body.lock() {
            *slot = body;
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Release);
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-node transport counters of one live-network twin node, as
/// rendered by [`render_twin_nodes`]. The twin runtime fills these;
/// cs-obs only defines the row shape and the exposition so the twin's
/// per-node metrics ride the same endpoint as the simulator's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwinNodeRow {
    /// Node id (the `node` label).
    pub node: u64,
    /// Announcements handed to the transport.
    pub sent: u64,
    /// Envelopes delivered inside their round.
    pub received: u64,
    /// Envelopes that missed their round deadline.
    pub late: u64,
    /// Received copies differing from the sender's canonical payload.
    pub divergences: u64,
}

/// Render per-twin-node transport counters as Prometheus-style text,
/// one labelled series per node and counter. Append to the simulator's
/// exposition to publish both through one endpoint.
pub fn render_twin_nodes(rows: &[TwinNodeRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::with_capacity(64 * rows.len());
    for (name, help, get) in [
        (
            "cs_twin_node_sent",
            "Announcements handed to the transport",
            (|r: &TwinNodeRow| r.sent) as fn(&TwinNodeRow) -> u64,
        ),
        (
            "cs_twin_node_received",
            "Envelopes delivered inside their round",
            |r| r.received,
        ),
        (
            "cs_twin_node_late",
            "Envelopes that missed their round deadline",
            |r| r.late,
        ),
        (
            "cs_twin_node_divergences",
            "Received copies differing from the canonical payload",
            |r| r.divergences,
        ),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for row in rows {
            out.push_str(&format!("{name}{{node=\"{}\"}} {}\n", row.node, get(row)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_rows_render_as_labelled_counters() {
        let rows = [
            TwinNodeRow {
                node: 17,
                sent: 160,
                received: 155,
                late: 3,
                divergences: 0,
            },
            TwinNodeRow {
                node: 42,
                sent: 80,
                received: 80,
                late: 0,
                divergences: 1,
            },
        ];
        let body = render_twin_nodes(&rows);
        assert!(body.contains("cs_twin_node_sent{node=\"17\"} 160\n"));
        assert!(body.contains("cs_twin_node_late{node=\"17\"} 3\n"));
        assert!(body.contains("cs_twin_node_divergences{node=\"42\"} 1\n"));
        // Same line grammar as the main exposition.
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            assert!(parts.next().unwrap().parse::<f64>().is_ok(), "{line:?}");
            assert!(parts.next().is_some(), "{line:?}");
        }
        assert!(render_twin_nodes(&[]).is_empty());
    }

    #[test]
    fn serves_latest_published_snapshot() {
        let handle = serve("127.0.0.1:0").expect("bind ephemeral port");
        let body = "# TYPE cs_round gauge\ncs_round 42\n";
        handle.publish("cs_round 41\n".to_string());
        handle.publish(body.to_string());
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK"));
        assert!(resp.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert_eq!(resp.split("\r\n\r\n").nth(1), Some(body));
    }
}
