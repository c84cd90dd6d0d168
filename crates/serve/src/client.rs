//! A blocking client for the serve protocol.
//!
//! One TCP connection, line-delimited JSON both ways. Because the server
//! interleaves late `Done` messages with direct answers on the same
//! connection, the client keeps a small reorder queue: reading towards a
//! `Stats` answer stashes any `Done`s that arrive first, and
//! [`ServeClient::recv_done`] consumes the stash before touching the
//! socket.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    write_line, JobDone, Rejection, Request, Response, StatsReply, SubmitRequest, TopReply,
};

/// A connected protocol client.
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    pending_done: VecDeque<JobDone>,
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl ServeClient {
    /// Connect to a serve daemon.
    ///
    /// # Errors
    ///
    /// Connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient {
            stream,
            reader,
            pending_done: VecDeque::new(),
        })
    }

    /// Set a read timeout for every subsequent receive (`None` blocks
    /// forever, the default).
    ///
    /// # Errors
    ///
    /// The underlying `setsockopt` failed.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        let line = serde_json::to_string(request)
            .map_err(|e| bad_data(format!("serialize request: {e}")))?;
        write_line(&mut self.stream, line)
    }

    fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(line.trim()).map_err(|e| bad_data(format!("malformed response: {e}")))
    }

    /// Read responses until one satisfies `want`, stashing interleaved
    /// `Done`s for [`recv_done`](Self::recv_done). The unwanted response
    /// comes back boxed so the closure's `Err` arm stays pointer-sized.
    fn recv_until<T>(
        &mut self,
        mut want: impl FnMut(Response) -> Result<T, Box<Response>>,
    ) -> io::Result<T> {
        loop {
            match want(self.recv()?) {
                Ok(v) => return Ok(v),
                Err(other) => match *other {
                    Response::Done(done) => self.pending_done.push_back(done),
                    Response::Error { message } => return Err(bad_data(message)),
                    other => {
                        return Err(bad_data(format!("unexpected response: {other:?}")));
                    }
                },
            }
        }
    }

    /// Submit a kernel; returns the admission decision — `Ok(job_id)` or
    /// the typed [`Rejection`].
    ///
    /// # Errors
    ///
    /// Socket or protocol failure (not admission rejection).
    pub fn submit(&mut self, request: SubmitRequest) -> io::Result<Result<u64, Rejection>> {
        self.send(&Request::Submit(request))?;
        self.recv_until(|r| match r {
            Response::Accepted { job } => Ok(Ok(job)),
            Response::Rejected(rejection) => Ok(Err(rejection)),
            other => Err(Box::new(other)),
        })
    }

    /// Receive the next job completion on this connection (possibly one
    /// stashed while waiting for another answer).
    ///
    /// # Errors
    ///
    /// Socket or protocol failure, including a read timeout configured
    /// via [`set_read_timeout`](Self::set_read_timeout).
    pub fn recv_done(&mut self) -> io::Result<JobDone> {
        if let Some(done) = self.pending_done.pop_front() {
            return Ok(done);
        }
        self.recv_until(|r| match r {
            Response::Done(done) => Ok(done),
            other => Err(Box::new(other)),
        })
    }

    /// Liveness probe; `true` on `Pong`.
    ///
    /// # Errors
    ///
    /// Socket or protocol failure.
    pub fn ping(&mut self) -> io::Result<bool> {
        self.send(&Request::Ping)?;
        self.recv_until(|r| match r {
            Response::Pong => Ok(true),
            other => Err(Box::new(other)),
        })
    }

    /// Fetch the server's live statistics.
    ///
    /// # Errors
    ///
    /// Socket or protocol failure.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        self.send(&Request::Stats)?;
        self.recv_until(|r| match r {
            Response::Stats(stats) => Ok(stats),
            other => Err(Box::new(other)),
        })
    }

    /// Fetch the live introspection view (per-tenant queues, rolling SLO
    /// telemetry, aggregated instruction profile).
    ///
    /// # Errors
    ///
    /// Socket or protocol failure.
    pub fn top(&mut self) -> io::Result<TopReply> {
        self.send(&Request::Top)?;
        self.recv_until(|r| match r {
            Response::Top(top) => Ok(top),
            other => Err(Box::new(other)),
        })
    }

    /// Request cancellation of an accepted job; `true` if the job was
    /// still live and the cancellation was delivered. The job's `Done`
    /// (with `ok: false`, error `"cancelled"`) still follows via
    /// [`recv_done`](Self::recv_done).
    ///
    /// # Errors
    ///
    /// Socket or protocol failure.
    pub fn cancel(&mut self, job: u64) -> io::Result<bool> {
        self.send(&Request::Cancel { job })?;
        self.recv_until(|r| match r {
            Response::Cancelled { job: j, cancelled } if j == job => Ok(cancelled),
            other => Err(Box::new(other)),
        })
    }

    /// Request a graceful drain; returns the number of jobs still pending
    /// at the time of the request.
    ///
    /// # Errors
    ///
    /// Socket or protocol failure.
    pub fn drain(&mut self) -> io::Result<u64> {
        self.send(&Request::Drain)?;
        self.recv_until(|r| match r {
            Response::Draining { pending } => Ok(pending),
            other => Err(Box::new(other)),
        })
    }
}
