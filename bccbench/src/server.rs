//! The server under test: spawning the shipped `bcc listen`, talking to it
//! over TCP, and reading its process counters from `/proc`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;

/// How long a spawned server may take to print its listening banner.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long any single response may take before the run gives up on it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `bcc listen <graph> 127.0.0.1:0 [flags]`.
pub struct Server {
    child: Child,
    /// The kernel-chosen address from the listening banner.
    pub addr: SocketAddr,
    /// Drains the server's stderr (slow-query log, shutdown banner) so a
    /// full pipe can never block it.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server with `flags` after its positional arguments and
    /// waits for its `listening on <addr>` banner.
    pub fn spawn(bcc: &Path, graph: &Path, flags: &[&str]) -> io::Result<Server> {
        let mut child = Command::new(bcc)
            .arg("listen")
            .arg(graph)
            .arg("127.0.0.1:0")
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            drain: Some(drain),
        };
        let banner = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "bcc listen printed no listening banner",
            )
        })?;
        server.addr = banner.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad banner address `{banner}`"),
            )
        })?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one client connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(self.addr)
    }

    /// Sends `shutdown` and waits for the process to exit (killing it if it
    /// does not within the response timeout).
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Ok(mut conn) = self.connect() {
            let _ = conn.send("shutdown");
        }
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
        Ok(())
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            self.reap();
        }
    }
}

/// One newline-JSON client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// Reads one response line (without the newline).
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// One request/response round trip.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// `stats` and `metrics` together, as parsed JSON.
    pub fn snapshot(&mut self) -> io::Result<Snapshot> {
        let parse = |text: String| {
            Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        };
        let stats = self.call("stats")?;
        let metrics = self.call("metrics")?;
        Ok(Snapshot {
            stats_line_len: stats.len() + 1,
            metrics_line_len: metrics.len() + 1,
            stats: parse(stats)?,
            metrics: parse(metrics)?,
        })
    }
}

/// A `stats` + `metrics` pair taken at one instant.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub stats: Json,
    pub metrics: Json,
    /// Wire sizes of the two responses (they count in `bytes_out`).
    pub stats_line_len: usize,
    pub metrics_line_len: usize,
}

/// CPU time (user + system) the process `pid` has used so far, in seconds.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok((ticks(11) + ticks(12)) as f64 / hz)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kb / 1024.0)
}
