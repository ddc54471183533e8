//! A small blocking client for the campaign service.
//!
//! One [`Client`] is one session (one TCP connection). The API is
//! synchronous because every caller in this workspace is: the
//! `rskip-eval submit` subcommand, the CI smoke test, and the
//! integration suite. Multiple jobs *can* share a connection (frames
//! carry job ids), but [`stream_job`](Client::stream_job) is written
//! for the common one-job-per-connection case and treats other jobs'
//! frames as ignorable noise.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode, encode, DoneFrame, ErrorKind, JobSpec, ProgressFrame, Request, Response,
    PROTOCOL_VERSION,
};

/// How a client waits out transient failures: capped, jittered
/// exponential backoff, honoring the server's `retry_after_ms` hint
/// when one is offered.
///
/// Reconnect-and-resubmit is *safe* against a v2 server, which is what
/// makes the retry loop more than a prayer: a completed job answers
/// from the result cache, an in-flight duplicate is refused with a
/// retry hint instead of double-running, and a job orphaned by the
/// broken connection parks its progress and the resubmission resumes
/// it at the next chunk boundary.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 means no retries.
    pub max_attempts: u32,
    /// Backoff before the second attempt, milliseconds.
    pub base_ms: u64,
    /// Ceiling for any single backoff, milliseconds (pre-jitter).
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_ms: 100,
            cap_ms: 5_000,
        }
    }
}

impl RetryPolicy {
    /// The pre-sleep delay after failed attempt number `attempt`
    /// (zero-based): the server's hint when present, else
    /// `base_ms << attempt`, capped at `cap_ms`, plus up to 25%
    /// jitter. Pure in its inputs so the bounds are testable.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32, hint: Option<u64>, jitter: u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms);
        let base = hint.unwrap_or(exp).min(self.cap_ms).max(1);
        base + jitter % (base / 4 + 1)
    }
}

/// Whether one attempt failed transiently (worth a backoff and retry)
/// or terminally.
enum AttemptError {
    Retry { hint: Option<u64>, err: io::Error },
    Fatal(io::Error),
}

/// What the server said in its `Hello`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Wire protocol version.
    pub protocol: u32,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
}

/// A streamed job, fully consumed.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// Every progress frame, in order.
    pub progress: Vec<ProgressFrame>,
    /// The terminal frame: `Done` on completion, `Cancelled` frames are
    /// surfaced as `Err` by [`stream_job`](Client::stream_job) callers
    /// that asked to cancel, so this is always a completion here.
    pub done: DoneFrame,
}

fn bad_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// One session with a campaign server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    info: ServerInfo,
}

impl Client {
    /// Connects and consumes the server's `Hello`.
    ///
    /// # Errors
    ///
    /// Connection failure, or a first frame that is not a `Hello`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One small request per reply awaited: send it now, not after
        // the server's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            info: ServerInfo {
                protocol: 0,
                workers: 0,
                queue_capacity: 0,
            },
        };
        match client.recv()? {
            Response::Hello {
                protocol,
                workers,
                queue_capacity,
            } => {
                client.info = ServerInfo {
                    protocol,
                    workers,
                    queue_capacity,
                };
                // Declare ourselves only to servers that already
                // advertised v2 — a v1 server would reject the (to it,
                // unknown) frame as malformed.
                if protocol >= 2 {
                    client.send(&Request::Hello {
                        protocol: PROTOCOL_VERSION,
                    })?;
                }
                Ok(client)
            }
            other => Err(bad_data(format!("expected Hello, got {other:?}"))),
        }
    }

    /// The server's greeting.
    #[must_use]
    pub fn info(&self) -> ServerInfo {
        self.info
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_raw(&encode(request))
    }

    /// Sends one raw line verbatim (plus newline) in one write — for
    /// exercising the server's malformed-frame path from tests and
    /// smoke checks.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())
    }

    /// Receives one response frame (blocking).
    ///
    /// # Errors
    ///
    /// EOF (`UnexpectedEof`), socket failure, or an unparseable frame
    /// (`InvalidData`).
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                return decode(&line).map_err(bad_data);
            }
        }
    }

    /// Submits `spec` and returns the server's immediate answer
    /// (`Accepted` or `Rejected`).
    ///
    /// # Errors
    ///
    /// Transport failure, or an unrelated frame arriving first — use
    /// raw [`send`](Client::send)/[`recv`](Client::recv) when
    /// multiplexing jobs on one connection.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Response> {
        self.send(&Request::Submit(spec.clone()))?;
        loop {
            match self.recv()? {
                r @ (Response::Accepted { .. } | Response::Rejected { .. }) => return Ok(r),
                Response::Progress(_) | Response::Done(_) | Response::Cancelled { .. } => {}
                Response::Error { error, detail } => {
                    return Err(bad_data(format!("submit failed: {error:?}: {detail}")))
                }
                Response::Hello { .. } => {}
            }
        }
    }

    /// Submits `spec`, expecting acceptance, and returns the job id.
    ///
    /// # Errors
    ///
    /// Transport failure, or a rejection (mapped to `InvalidData` with
    /// the typed reason in the message).
    pub fn submit_accepted(&mut self, spec: &JobSpec) -> io::Result<u64> {
        match self.submit(spec)? {
            Response::Accepted { job, .. } => Ok(job),
            Response::Rejected { error, detail, .. } => {
                Err(bad_data(format!("rejected: {error:?}: {detail}")))
            }
            other => Err(bad_data(format!("unexpected frame {other:?}"))),
        }
    }

    /// Requests cancellation of `job`. The terminal `Cancelled` frame
    /// (or `Error` for an unknown/finished job) arrives on the stream.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn cancel(&mut self, job: u64) -> io::Result<()> {
        self.send(&Request::Cancel { job })
    }

    /// Asks the server to drain and shut down.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)
    }

    /// Consumes frames until `job` reaches a terminal frame, invoking
    /// `on_progress` for each of its progress frames. Frames belonging
    /// to other jobs on this connection are skipped.
    ///
    /// # Errors
    ///
    /// Transport failure, a `Cancelled`/`Error` terminal for this job
    /// (mapped to `Interrupted`/`InvalidData`), or EOF before the
    /// terminal frame.
    pub fn stream_job(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(&ProgressFrame),
    ) -> io::Result<JobOutcome> {
        let mut progress = Vec::new();
        loop {
            match self.recv()? {
                Response::Progress(frame) if frame.job == job => {
                    on_progress(&frame);
                    progress.push(frame);
                }
                Response::Done(done) if done.job == job => {
                    return Ok(JobOutcome {
                        job,
                        progress,
                        done,
                    })
                }
                Response::Cancelled {
                    job: cancelled,
                    executed,
                    ..
                } if cancelled == job => {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("job {job} cancelled after {executed} trials"),
                    ))
                }
                Response::Error { error, detail } if error == ErrorKind::UnknownJob => {
                    return Err(bad_data(format!("{error:?}: {detail}")))
                }
                _ => {}
            }
        }
    }

    /// Submits `spec` and drives it to `Done`, surviving transient
    /// failures per `policy`: connection refusals and broken streams
    /// reconnect and resubmit (safe — see [`RetryPolicy`]);
    /// `QueueFull` / `DuplicateInFlight` rejections honor the server's
    /// `retry_after_ms` hint, falling back to capped jittered
    /// exponential backoff. `on_progress` sees every progress frame
    /// across all attempts; a resumed job continues from its last
    /// completed chunk, so frames never repeat trials.
    ///
    /// # Errors
    ///
    /// A terminal rejection (bad spec, shutdown), an explicit
    /// cancellation, or the last transient error once attempts run
    /// out.
    pub fn submit_resilient<A: ToSocketAddrs>(
        addr: A,
        spec: &JobSpec,
        policy: RetryPolicy,
        mut on_progress: impl FnMut(&ProgressFrame),
    ) -> io::Result<DoneFrame> {
        // Deterministic-per-process jitter; no RNG dependency needed
        // for spreading a retry herd.
        let mut jitter = 0x2545_F491_4F6C_DD1D_u64 ^ u64::from(std::process::id());
        let mut next_jitter = move || {
            jitter ^= jitter << 13;
            jitter ^= jitter >> 7;
            jitter ^= jitter << 17;
            jitter
        };
        let attempts = policy.max_attempts.max(1);
        let mut last_err = io::Error::other("no attempts made");
        for attempt in 0..attempts {
            match Self::attempt_job(&addr, spec, &mut on_progress) {
                Ok(done) => return Ok(done),
                Err(AttemptError::Fatal(err)) => return Err(err),
                Err(AttemptError::Retry { hint, err }) => {
                    last_err = err;
                    if attempt + 1 < attempts {
                        let ms = policy.delay_ms(attempt, hint, next_jitter());
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        Err(last_err)
    }

    /// One connect → submit → stream attempt, classifying failures.
    fn attempt_job<A: ToSocketAddrs>(
        addr: &A,
        spec: &JobSpec,
        on_progress: &mut impl FnMut(&ProgressFrame),
    ) -> Result<DoneFrame, AttemptError> {
        let retry = |hint, err| AttemptError::Retry { hint, err };
        let mut client = Client::connect(addr).map_err(|e| retry(None, e))?;
        let job = match client.submit(spec).map_err(|e| retry(None, e))? {
            Response::Accepted { job, .. } => job,
            Response::Rejected {
                error,
                detail,
                retry_after_ms,
            } => {
                let err = bad_data(format!("rejected: {error:?}: {detail}"));
                return Err(match error {
                    ErrorKind::QueueFull | ErrorKind::DuplicateInFlight => {
                        retry(retry_after_ms, err)
                    }
                    _ => AttemptError::Fatal(err),
                });
            }
            other => {
                return Err(AttemptError::Fatal(bad_data(format!(
                    "unexpected frame {other:?}"
                ))))
            }
        };
        match client.stream_job(job, on_progress) {
            Ok(outcome) => Ok(outcome.done),
            // An explicit cancel is a decision, not an outage.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Err(AttemptError::Fatal(e)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(AttemptError::Fatal(e)),
            // EOF / reset mid-stream: the server suspends the orphaned
            // job; resubmitting resumes it.
            Err(e) => Err(retry(None, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_hinted_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_ms: 100,
            cap_ms: 3_000,
        };
        // Exponential without a hint: 100, 200, 400 ... capped.
        assert_eq!(policy.delay_ms(0, None, 0), 100);
        assert_eq!(policy.delay_ms(1, None, 0), 200);
        assert_eq!(policy.delay_ms(10, None, 0), 3_000);
        assert_eq!(policy.delay_ms(63, None, 0), 3_000, "shift must not wrap");
        // The server's hint overrides the exponent but not the cap.
        assert_eq!(policy.delay_ms(0, Some(750), 0), 750);
        assert_eq!(policy.delay_ms(0, Some(60_000), 0), 3_000);
        // Jitter adds at most 25%.
        for jitter in [1u64, 17, u64::MAX] {
            let d = policy.delay_ms(2, None, jitter);
            assert!((400..=500).contains(&d), "jittered delay {d}");
        }
    }
}
