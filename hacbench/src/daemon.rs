//! The daemon under test and the loopback client that drives it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hac_serve::json::{self, Json};
use hac_serve::{ServeOptions, Server};

use crate::stats;

/// A reply slower than this is a failure, and so is a shutdown that
/// takes longer.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Where the daemon runs.
pub enum DaemonKind {
    /// A `hacc daemon` child process: the benchmark proper.
    Child(PathBuf),
    /// `hac_serve::daemon::spawn` on a thread of this process, with the
    /// same options (the smoke test, which has no `hacc` binary).
    InProcess,
}

/// A running daemon: the CLI defaults plus
/// `--listen 127.0.0.1:0 --max-conns 2`.
pub struct Daemon {
    addr: SocketAddr,
    /// `None` once shut down.
    proc: Option<Proc>,
}

enum Proc {
    Child {
        child: Child,
        /// Held open so the daemon never writes to a closed pipe.
        _stdout: BufReader<ChildStdout>,
        /// Collects stderr until the child exits.
        log: JoinHandle<String>,
    },
    InProcess(hac_serve::daemon::Daemon),
}

impl Daemon {
    /// Start a daemon and return once it listens.
    pub fn start(kind: &DaemonKind) -> Result<Daemon, String> {
        match kind {
            DaemonKind::Child(hacc) => {
                let mut child = Command::new(hacc)
                    .args(["daemon", "--listen", "127.0.0.1:0", "--max-conns", "2"])
                    // Fault plans make the server bypass its result cache,
                    // and a pinned ops rate changes deadline admission.
                    .env_remove("HAC_FAULT_PLAN")
                    .env_remove("HAC_CHAOS_PLAN")
                    .env_remove("HAC_OPS_PER_MS")
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", hacc.display()))?;
                let mut stderr = child.stderr.take().expect("stderr is piped");
                let log = std::thread::spawn(move || {
                    let mut s = String::new();
                    let _ = stderr.read_to_string(&mut s);
                    s
                });
                let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
                let mut line = String::new();
                let _ = stdout.read_line(&mut line);
                let addr = line
                    .trim()
                    .strip_prefix("daemon listening on ")
                    .and_then(|a| a.parse().ok());
                match addr {
                    Some(addr) => Ok(Daemon {
                        addr,
                        proc: Some(Proc::Child {
                            child,
                            _stdout: stdout,
                            log,
                        }),
                    }),
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        let log = log.join().unwrap_or_default();
                        Err(format!("daemon did not start: {line:?} {log}"))
                    }
                }
            }
            DaemonKind::InProcess => {
                let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                let server = Arc::new(Server::new(ServeOptions::default()));
                let options = hac_serve::daemon::DaemonOptions {
                    max_conns: 2,
                    ..Default::default()
                };
                let d = hac_serve::daemon::spawn(server, listener, options)
                    .map_err(|e| e.to_string())?;
                Ok(Daemon {
                    addr: d.addr(),
                    proc: Some(Proc::InProcess(d)),
                })
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set size (this process's, in process).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        match &self.proc {
            Some(Proc::Child { child, .. }) => stats::peak_rss_mb(&child.id().to_string()),
            _ => stats::peak_rss_mb("self"),
        }
    }

    /// The `stats` control reply. With `--max-conns 2`, call it only
    /// after the client connections have closed.
    pub fn stats(&self) -> Result<Json, String> {
        let (reply, ..) = Conn::connect(self.addr)?.round_trip(r#"{"control":"stats"}"#)?;
        json::parse(&reply)
    }

    /// Graceful shutdown through `{"control":"shutdown"}`. The daemon
    /// must exit cleanly, logging `shut down cleanly`, within
    /// [`REPLY_TIMEOUT`].
    pub fn shutdown(mut self) -> Result<(), String> {
        let (reply, ..) = Conn::connect(self.addr)?.round_trip(r#"{"control":"shutdown"}"#)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("shutdown refused: {reply}"));
        }
        match self.proc.take().expect("shut down once") {
            Proc::Child { mut child, log, .. } => {
                let deadline = Instant::now() + REPLY_TIMEOUT;
                let status = loop {
                    match child.try_wait() {
                        Ok(Some(status)) => break status,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err("daemon did not exit within 10 s of shutdown".into());
                        }
                    }
                };
                let log = log.join().unwrap_or_default();
                if status.success() && log.contains("shut down cleanly") {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}: {log}"))
                }
            }
            Proc::InProcess(d) => d.join().map_err(|e| format!("daemon failed: {e}")),
        }
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is stopped, never leaked.
    fn drop(&mut self) {
        match self.proc.take() {
            Some(Proc::Child { mut child, .. }) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Some(Proc::InProcess(d)) => {
                let stopped = Conn::connect(self.addr)
                    .and_then(|mut c| c.round_trip(r#"{"control":"shutdown"}"#));
                if stopped.is_ok() {
                    let _ = d.join();
                }
            }
            None => {}
        }
    }
}

/// One client connection: `TCP_NODELAY`, one write per request line,
/// and a [`REPLY_TIMEOUT`] read deadline, so any stall measured belongs
/// to the daemon.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let err = |e: std::io::Error| format!("connect {addr}: {e}");
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(err)?;
        let reader = BufReader::new(stream.try_clone().map_err(err)?);
        Ok(Conn {
            stream,
            reader,
            out: Vec::new(),
        })
    }

    /// Send `line` and wait for the reply line. Returns the reply
    /// without its newline, the instant before the first request byte
    /// was written, and the instant the reply's newline was read.
    pub fn round_trip(&mut self, line: &str) -> Result<(String, Instant, Instant), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let start = Instant::now();
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = Vec::new();
        self.reader
            .read_until(b'\n', &mut reply)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    "no reply within 10 s".to_string()
                }
                _ => format!("receive: {e}"),
            })?;
        let end = Instant::now();
        if reply.pop() != Some(b'\n') {
            return Err("connection closed before the reply ended".into());
        }
        let reply = String::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
        Ok((reply, start, end))
    }
}
