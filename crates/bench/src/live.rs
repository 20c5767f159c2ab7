//! Live exposition plumbing for `dyc_serve --live` and `dycstat watch`:
//! a minimal std-only HTTP responder over [`TcpListener`] serving the
//! sampler's Prometheus text, plus the composite [`LiveServe`] bundle
//! (registry + flight recorder + sampler + optional server) the serving
//! binaries and tests share.
//!
//! The responder is deliberately tiny — one accept loop on a background
//! thread, `Connection: close` per request, no keep-alive, no routing
//! beyond "every GET gets the scrape" — because the workspace takes no
//! HTTP dependency and a Prometheus scrape needs nothing more.

use dyc_obs::{LiveHandles, Sampler, SamplerConfig, SamplerView, Window};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A background HTTP server answering every request with the sampler's
/// current Prometheus exposition. Binds eagerly (so `--live` reports a
/// bad address immediately), accepts on a dedicated thread, and stops
/// on [`MetricsServer::stop`] or drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port 0 to auto-pick) and
    /// start serving `view`'s exposition.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(addr: &str, view: SamplerView) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dyc-metrics".into())
            .spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Serve inline: scrapes are small and rare,
                            // and a slow client can't wedge the replay
                            // (only this serving thread).
                            let _ = respond(stream, &view);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
            .expect("spawn metrics server thread");
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read the request head (we ignore it — every request gets the
/// scrape) and write one `200 OK` with the exposition body.
fn respond(mut stream: TcpStream, view: &SamplerView) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let body = view.prometheus();
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot HTTP GET against `addr` (e.g. `127.0.0.1:9184`),
/// returning the response body. Shared by `dycstat watch` and the
/// serving tests — the only HTTP client the workspace needs.
///
/// # Errors
///
/// I/O errors from connect/read/write, or a non-200 status line.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    if !text.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!(
            "unexpected response: {:?}",
            text.lines().next().unwrap_or("")
        )));
    }
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(body)
}

/// The composite live-telemetry bundle `dyc_serve --live` (and
/// `bench_smoke`'s live section) runs: handles to attach to replays, a
/// running sampler, and an optional scrape endpoint.
#[derive(Debug)]
pub struct LiveServe {
    /// The handles to pass to `replay_live` — shared across every
    /// replay in the run so windows span the whole session.
    pub handles: LiveHandles,
    sampler: Sampler,
    server: Option<MetricsServer>,
}

impl LiveServe {
    /// Build handles (with a flight recorder when `cfg.watchdog` is
    /// armed), spawn the sampler, and bind the scrape endpoint when
    /// `addr` is given.
    ///
    /// # Errors
    ///
    /// Returns the bind error for a bad `addr`.
    pub fn start(addr: Option<&str>, cfg: SamplerConfig) -> std::io::Result<LiveServe> {
        let handles = if cfg.watchdog.is_some() {
            LiveHandles::with_flight(dyc_obs::DEFAULT_CAPACITY / 16)
        } else {
            LiveHandles::new()
        };
        let sampler = Sampler::spawn(Arc::clone(&handles.registry), handles.flight.clone(), cfg);
        let server = match addr {
            Some(a) => Some(MetricsServer::start(a, sampler.view())?),
            None => None,
        };
        Ok(LiveServe {
            handles,
            sampler,
            server,
        })
    }

    /// The scrape endpoint's bound address, when one was requested.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(MetricsServer::local_addr)
    }

    /// A read handle onto the sampler.
    pub fn view(&self) -> SamplerView {
        self.sampler.view()
    }

    /// Stop the endpoint and the sampler (final flush window included)
    /// and return the retained windows and incidents.
    pub fn finish(self) -> (Vec<Window>, Vec<dyc_obs::IncidentRecord>) {
        if let Some(s) = self.server {
            s.stop();
        }
        self.sampler.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyc_obs::{EventKind, LiveSlot};

    #[test]
    fn server_answers_a_scrape_and_stops() {
        let live = LiveServe::start(
            Some("127.0.0.1:0"),
            SamplerConfig {
                interval: Duration::from_millis(20),
                ..SamplerConfig::default()
            },
        )
        .unwrap();
        let slot = Arc::new(LiveSlot::new());
        live.handles.registry.register(&slot);
        slot.add(EventKind::DispatchHit, 5);
        let addr = live.local_addr().unwrap().to_string();
        let body = http_get(&addr, "/metrics").unwrap();
        assert!(body.contains("# TYPE dyc_live_dispatches_total counter"));
        assert!(body.contains("dyc_live_dispatches_total 5"));
        let (windows, incidents) = live.finish();
        assert!(!windows.is_empty());
        assert!(incidents.is_empty());
        // The port is released after finish(): a fresh connect fails.
        assert!(TcpStream::connect(&addr).is_err() || http_get(&addr, "/").is_err());
    }

    #[test]
    fn http_get_rejects_a_dead_endpoint() {
        // Port 1 is essentially never listening.
        assert!(http_get("127.0.0.1:1", "/metrics").is_err());
    }
}
