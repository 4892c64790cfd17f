//! Typed remote endpoints and the byte streams bound to them.
//!
//! [`Endpoint`] is the one public address vocabulary of the transport:
//! `tcp:HOST:PORT` or `unix:PATH`, parsed with a single consistent error
//! that names the accepted forms. Everything that used to hand-roll
//! `--listen`/`--connect` parsing goes through [`Endpoint::from_str`]
//! instead.

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Address of a remote admission endpoint: `tcp:HOST:PORT` or `unix:PATH`.
///
/// Parsing is strict and its error is uniform: every malformed input —
/// missing scheme, TCP address without a port, empty socket path — fails
/// with one message naming the accepted forms, so CLI surfaces and
/// libraries report endpoint mistakes identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP endpoint, `HOST:PORT` (port 0 binds an ephemeral port).
    Tcp(String),
    /// Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(hostport) => write!(f, "tcp:{hostport}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl std::str::FromStr for Endpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Endpoint, String> {
        let malformed = || format!("invalid endpoint '{s}': expected tcp:HOST:PORT or unix:PATH");
        if let Some(hostport) = s.strip_prefix("tcp:") {
            // HOST:PORT with a numeric-looking port separator; `[::1]:80`
            // style bracketed IPv6 also satisfies the rsplit.
            if hostport.rsplit_once(':').is_none() {
                return Err(malformed());
            }
            return Ok(Endpoint::Tcp(hostport.to_string()));
        }
        #[cfg(unix)]
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(malformed());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        Err(malformed())
    }
}

/// One accepted or dialed byte stream, TCP or UDS.
#[derive(Debug)]
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn connect(addr: &Endpoint) -> std::io::Result<Conn> {
        match addr {
            Endpoint::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                // Frames are small and latency-bound; Nagle would batch
                // pipelined requests behind delayed ACKs.
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    #[cfg(unix)]
    pub(crate) fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }

    pub(crate) fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => drop(s.shutdown(std::net::Shutdown::Both)),
            #[cfg(unix)]
            Conn::Unix(s) => drop(s.shutdown(std::net::Shutdown::Both)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Listening half, TCP or UDS, in non-blocking accept mode.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    pub(crate) fn bind(addr: &Endpoint) -> std::io::Result<(Listener, Endpoint)> {
        match addr {
            Endpoint::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                listener.set_nonblocking(true)?;
                let local = Endpoint::Tcp(listener.local_addr()?.to_string());
                Ok((Listener::Tcp(listener), local))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A live server keeps its path; a stale socket file from a
                // crashed one would make bind fail even though nobody is
                // listening.
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("{} is served by a live server", path.display()),
                        ));
                    }
                    let _ = std::fs::remove_file(path);
                }
                // Bind and listen at a sibling path, then rename the socket
                // into place: the path appears only once it accepts, so a
                // driver waiting for the file never connects into the gap
                // between bind and listen.
                let mut staging = path.clone().into_os_string();
                staging.push("~");
                let staging = std::path::PathBuf::from(staging);
                let _ = std::fs::remove_file(&staging);
                let listener = UnixListener::bind(&staging)?;
                if let Err(e) = std::fs::rename(&staging, path) {
                    let _ = std::fs::remove_file(&staging);
                    return Err(e);
                }
                listener.set_nonblocking(true)?;
                Ok((Listener::Unix(listener), Endpoint::Unix(path.clone())))
            }
        }
    }

    /// Accepts one connection, leaving it **non-blocking** — the readiness
    /// loop drives every accepted stream with poll-gated reads and writes.
    pub(crate) fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Conn::Unix(stream))
            }
        }
    }

    #[cfg(unix)]
    pub(crate) fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parses_and_displays() {
        let tcp: Endpoint = "tcp:127.0.0.1:7007".parse().unwrap();
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:7007".to_string()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:7007");
        #[cfg(unix)]
        {
            let unix: Endpoint = "unix:/tmp/x.sock".parse().unwrap();
            assert_eq!(unix.to_string(), "unix:/tmp/x.sock");
        }
    }

    #[test]
    fn malformed_endpoints_get_one_consistent_error() {
        for bad in ["tcp:noport", "unix:", "127.0.0.1:7007", "", "http://x"] {
            let err = bad.parse::<Endpoint>().unwrap_err();
            assert!(
                err.contains("expected tcp:HOST:PORT or unix:PATH"),
                "error for {bad:?} must name the accepted forms, got: {err}"
            );
            assert!(
                err.contains(&format!("'{bad}'")),
                "error must quote the offending input, got: {err}"
            );
        }
    }
}
