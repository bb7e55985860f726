//! A deterministic fault-injecting TCP proxy for network-chaos testing.
//!
//! [`ChaosProxy`] sits between a client and `sprintd`, forwarding bytes
//! both ways while injecting transport faults — connection resets,
//! truncations (clean FIN mid-message), stalls, and trickled one-byte
//! writes — according to a plan derived *only* from the proxy seed and
//! the connection's accept index. Two runs with the same seed and the
//! same connection order inject exactly the same faults, which is what
//! lets the soak suite in `tests/soak.rs` assert bit-identical post-soak
//! state against a clean run: the chaos is adversarial but replayable.
//!
//! The taxonomy ([`FaultKind`]) covers the transport failures a control
//! daemon on a hostile network actually sees:
//!
//! - **Reset**: `SO_LINGER(0)` is armed and the socket dropped after a
//!   byte threshold, so the peer gets a hard RST mid-exchange (the
//!   ambiguous case: the request may or may not have been applied).
//! - **Truncate**: the stream is cleanly shut down after a threshold —
//!   a torn request or a half-delivered response.
//! - **Stall**: forwarding pauses once at a threshold, exercising read
//!   budgets and slowloris guards.
//! - **Trickle**: bytes are forwarded in tiny chunks with delays,
//!   exercising torn-read resumption in the parser.
//!
//! Each fault targets one [`FaultDirection`]; the other direction
//! forwards untouched.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::xorshift64;

/// How often a blocked proxy read wakes to poll the stop flag.
const TICK: Duration = Duration::from_millis(50);
/// Hard cap on an injected stall, so chaos never becomes a hang.
const MAX_STALL: Duration = Duration::from_millis(500);

/// Which direction of the connection a fault is injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirection {
    /// Bytes flowing from the client toward the service (requests).
    ClientToServer,
    /// Bytes flowing from the service toward the client (responses).
    ServerToClient,
}

/// One injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Forward untouched.
    None,
    /// Forward `after_bytes`, then hard-reset both sockets (RST).
    Reset {
        /// Bytes forwarded before the reset.
        after_bytes: u64,
    },
    /// Forward `after_bytes`, then cleanly shut the connection down.
    Truncate {
        /// Bytes forwarded before the FIN.
        after_bytes: u64,
    },
    /// Pause forwarding once, `millis` long, at `at_bytes`.
    Stall {
        /// Byte threshold that triggers the pause.
        at_bytes: u64,
        /// Pause length in milliseconds (capped at `MAX_STALL`, 500 ms,
        /// so zero-hang stays provable).
        millis: u64,
    },
    /// Forward in `chunk`-byte pieces with `delay_micros` between them,
    /// for the first `budget_bytes` of the connection (then forward
    /// normally — keep-alive connections must not crawl forever).
    Trickle {
        /// Bytes per write.
        chunk: usize,
        /// Delay between writes, in microseconds.
        delay_micros: u64,
        /// Bytes trickled before the connection returns to full speed.
        budget_bytes: u64,
    },
}

/// The full per-connection plan: what fault, in which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault to inject ([`FaultKind::None`] for a clean connection).
    pub kind: FaultKind,
    /// The direction it applies to.
    pub direction: FaultDirection,
}

/// Since-start proxy counters.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections that could not reach the upstream service.
    pub upstream_failures: AtomicU64,
    /// Injected hard resets.
    pub resets: AtomicU64,
    /// Injected truncations.
    pub truncations: AtomicU64,
    /// Injected stalls.
    pub stalls: AtomicU64,
    /// Connections forwarded with trickled writes.
    pub trickles: AtomicU64,
}

/// A running chaos proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<ProxyStats>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and starts proxying to `upstream`.
    ///
    /// `fault_per_mille` is the per-connection fault probability in
    /// 0..=1000; the draw — and every fault parameter — depends only on
    /// `seed` and the connection's accept index, so a rerun with the
    /// same seed and connection order replays identical chaos.
    pub fn spawn(
        upstream: SocketAddr,
        seed: u64,
        fault_per_mille: u32,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(ProxyStats::default());
        let acceptor = {
            let stop = stop.clone();
            let conns = conns.clone();
            let stats = stats.clone();
            std::thread::Builder::new()
                .name("chaos-accept".to_string())
                .spawn(move || {
                    run_accept(
                        &listener,
                        upstream,
                        seed,
                        fault_per_mille,
                        &stop,
                        &conns,
                        &stats,
                    );
                })?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            acceptor: Some(acceptor),
            conns,
            stats,
        })
    }

    /// The proxy's listening address (point clients here).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy's counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<ProxyStats> {
        &self.stats
    }

    /// The deterministic plan for connection number `conn_index` under
    /// `seed`/`fault_per_mille` — exposed so tests can predict and
    /// document exactly which connections get which faults.
    #[must_use]
    pub fn plan_for(seed: u64, conn_index: u64, fault_per_mille: u32) -> FaultPlan {
        let mut s = seed
            ^ conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ 0xDEAD_BEEF_CAFE_F00D_u64.rotate_left((conn_index % 63) as u32);
        if s == 0 {
            s = 0xBAD_5EED;
        }
        // Warm the generator out of any low-entropy seed neighborhood.
        for _ in 0..3 {
            xorshift64(&mut s);
        }
        let direction = if xorshift64(&mut s).is_multiple_of(2) {
            FaultDirection::ClientToServer
        } else {
            FaultDirection::ServerToClient
        };
        let roll = xorshift64(&mut s) % 1000;
        let kind = if roll >= u64::from(fault_per_mille) {
            FaultKind::None
        } else {
            match xorshift64(&mut s) % 4 {
                0 => FaultKind::Reset {
                    after_bytes: 4 + xorshift64(&mut s) % 512,
                },
                1 => FaultKind::Truncate {
                    after_bytes: 4 + xorshift64(&mut s) % 256,
                },
                2 => FaultKind::Stall {
                    at_bytes: xorshift64(&mut s) % 128,
                    millis: 20 + xorshift64(&mut s) % 180,
                },
                _ => FaultKind::Trickle {
                    chunk: 1 + (xorshift64(&mut s) % 7) as usize,
                    delay_micros: 100 + xorshift64(&mut s) % 700,
                    budget_bytes: 256 + xorshift64(&mut s) % 1792,
                },
            }
        };
        FaultPlan { kind, direction }
    }

    /// Stops accepting, tears down every live connection, joins threads.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.halt();
        }
    }
}

/// `true` for the error kinds a timed-out blocking read produces.
fn is_wait(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Arms `SO_LINGER(0)` so the socket's close sends an RST instead of a
/// graceful FIN. Raw FFI because the workspace is std-only (no libc).
fn arm_reset(stream: &TcpStream) {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct Linger {
            l_onoff: i32,
            l_linger: i32,
        }
        extern "C" {
            fn setsockopt(
                fd: i32,
                level: i32,
                name: i32,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_LINGER: i32 = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: fd is a live socket owned by `stream`; the option
        // struct matches the kernel's `struct linger` layout on Linux.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                (&raw const linger).cast(),
                u32::try_from(std::mem::size_of::<Linger>()).expect("linger size"),
            );
        }
    }
    #[cfg(not(unix))]
    let _ = stream;
}

fn run_accept(
    listener: &TcpListener,
    upstream: SocketAddr,
    seed: u64,
    fault_per_mille: u32,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: &Arc<ProxyStats>,
) {
    let mut conn_index: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                stats.connections.fetch_add(1, Ordering::SeqCst);
                let plan = ChaosProxy::plan_for(seed, conn_index, fault_per_mille);
                conn_index += 1;
                let stop = stop.clone();
                let stats = stats.clone();
                let spawned = std::thread::Builder::new()
                    .name("chaos-conn".to_string())
                    .spawn(move || run_connection(client, upstream, plan, &stop, &stats));
                match spawned {
                    Ok(handle) => conns.lock().expect("conns lock").push(handle),
                    Err(_) => {
                        // Out of threads: the peer gets a close, which a
                        // hardened client treats as any other transport
                        // fault.
                    }
                }
            }
            Err(e) if is_wait(&e) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn run_connection(
    client: TcpStream,
    upstream: SocketAddr,
    plan: FaultPlan,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        stats.upstream_failures.fetch_add(1, Ordering::SeqCst);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let client = Arc::new(client);
    let server = Arc::new(server);
    if matches!(plan.kind, FaultKind::Trickle { .. }) {
        stats.trickles.fetch_add(1, Ordering::SeqCst);
    }
    let (c2s, s2c) = match plan.direction {
        FaultDirection::ClientToServer => (plan.kind, FaultKind::None),
        FaultDirection::ServerToClient => (FaultKind::None, plan.kind),
    };
    let downstream = {
        let client = client.clone();
        let server = server.clone();
        let stop = stop.clone();
        let stats = stats.clone();
        std::thread::Builder::new()
            .name("chaos-pump".to_string())
            .spawn(move || pump(&server, &client, s2c, &stop, &stats))
    };
    pump(&client, &server, c2s, stop, stats);
    if let Ok(handle) = downstream {
        let _ = handle.join();
    }
}

/// Forwards bytes `src` → `dst`, injecting `fault`. Exits when either
/// side closes, the fault cuts the connection, or the proxy stops.
fn pump(
    src: &Arc<TcpStream>,
    dst: &Arc<TcpStream>,
    fault: FaultKind,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
) {
    let _ = src.set_read_timeout(Some(TICK));
    let mut copied: u64 = 0;
    let mut stalled = false;
    let mut buf = [0_u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match (&**src).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_wait(&e) => continue,
            Err(_) => break,
        };
        let mut chunk = &buf[..n];
        if let FaultKind::Stall { at_bytes, millis } = fault {
            if !stalled && copied + chunk.len() as u64 > at_bytes {
                stalled = true;
                stats.stalls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(millis).min(MAX_STALL));
            }
        }
        let cut = match fault {
            FaultKind::Reset { after_bytes } | FaultKind::Truncate { after_bytes } => {
                let room =
                    usize::try_from(after_bytes.saturating_sub(copied)).unwrap_or(usize::MAX);
                if chunk.len() >= room {
                    chunk = &chunk[..room];
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        let wrote = match fault {
            FaultKind::Trickle {
                chunk: piece,
                delay_micros,
                budget_bytes,
            } if copied < budget_bytes => write_trickled(dst, chunk, piece.max(1), delay_micros),
            _ => (&**dst).write_all(chunk).is_ok(),
        };
        copied += chunk.len() as u64;
        if cut {
            if matches!(fault, FaultKind::Reset { .. }) {
                stats.resets.fetch_add(1, Ordering::SeqCst);
                arm_reset(dst);
                arm_reset(src);
            } else {
                stats.truncations.fetch_add(1, Ordering::SeqCst);
            }
            break;
        }
        if !wrote {
            break;
        }
    }
    // Wake the opposite pump so the pair tears down together; the armed
    // linger (if any) turns the close into an RST.
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

fn write_trickled(dst: &Arc<TcpStream>, bytes: &[u8], piece: usize, delay_micros: u64) -> bool {
    for part in bytes.chunks(piece) {
        if (&**dst).write_all(part).is_err() {
            return false;
        }
        std::thread::sleep(Duration::from_micros(delay_micros));
    }
    true
}
