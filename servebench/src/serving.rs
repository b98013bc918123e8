//! The client side of the serving tier: the in-process `ohmflow-serve`
//! server, one closed-loop connection per caller, per-request latency
//! limits and answer verification.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ohmflow_apps::serve::{self, ServeConfig, ServerHandle};

use crate::inputs::{self, DeltaStream, SolveRequest};
use crate::record::{within, Outcome, Record, IDEAL_TOLERANCE};

/// A spawned server. The serving tier cannot cancel a solve, so once a
/// request has outlived its latency limit a worker may be busy for
/// minutes: such a server is left running (its threads end with the
/// process) instead of being joined.
pub struct Server {
    handle: ServerHandle,
    stuck: AtomicBool,
}

impl Server {
    /// Binds an ephemeral loopback port with the default configuration.
    pub fn spawn() -> Server {
        let handle = serve::spawn("127.0.0.1:0", ServeConfig::default())
            .expect("binding an ephemeral loopback port");
        Server {
            handle,
            stuck: AtomicBool::new(false),
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Opens a client connection with the given latency limit.
    pub fn connect(&self, limit: Duration) -> Conn<'_> {
        Conn {
            server: self,
            stream: None,
            limit,
        }
    }

    /// Shuts down and joins the server, unless a request timed out on it.
    pub fn close(self) {
        if !self.stuck.load(Ordering::SeqCst) {
            self.handle.shutdown();
        }
    }
}

/// Why a round trip produced no response payload.
#[derive(Debug)]
pub enum Fail {
    /// No response within the latency limit.
    Timeout,
    /// Connection or framing failure.
    Transport,
}

impl Fail {
    /// The failure class this counts as.
    pub fn outcome(&self) -> Outcome {
        match self {
            Fail::Timeout => Outcome::Timeout,
            Fail::Transport => Outcome::Transport,
        }
    }
}

/// One closed-loop client connection. After a timeout or transport error
/// the connection is dropped and the next call reconnects.
pub struct Conn<'s> {
    server: &'s Server,
    stream: Option<TcpStream>,
    limit: Duration,
}

impl Conn<'_> {
    /// Sends one frame and waits (up to the latency limit) for its answer.
    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, Fail> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.server.addr()).map_err(|_| Fail::Transport)?;
            stream.set_nodelay(true).map_err(|_| Fail::Transport)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream
            .set_read_timeout(Some(self.limit))
            .map_err(|_| Fail::Transport)?;
        let result = serve::write_frame(stream, payload).and_then(|()| serve::read_frame(stream));
        match result {
            Ok(Some(response)) => Ok(response),
            Ok(None) => {
                self.stream = None;
                Err(Fail::Transport)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                self.stream = None;
                self.server.stuck.store(true, Ordering::SeqCst);
                Err(Fail::Timeout)
            }
            Err(_) => {
                self.stream = None;
                Err(Fail::Transport)
            }
        }
    }
}

/// Server-reported error text of a status-1 payload, if it is one.
fn error_text(payload: &[u8]) -> Option<String> {
    match payload.split_first() {
        Some((&1, text)) => Some(String::from_utf8_lossy(text).into_owned()),
        _ => None,
    }
}

/// Sends one stateless solve and checks the answer against its exact value.
pub fn solve(conn: &mut Conn<'_>, req: &SolveRequest) -> Record {
    let payload = serve::encode_request(req.tag, &req.body);
    let start = Instant::now();
    let response = conn.call(&payload);
    let mut record = Record::transport(start.elapsed().as_secs_f64(), req.shape.class());
    match response {
        Err(fail) => record.outcome = fail.outcome(),
        Ok(payload) => {
            if let Some(text) = error_text(&payload) {
                record.outcome = Outcome::from_error(&text);
            } else if let Ok(answer) = serve::decode_response(&payload) {
                record.iterations = u64::from(answer.iterations);
                record.templated = answer.templated;
                record.outcome = if answer.edge_flows.len() != req.edges {
                    Outcome::Transport
                } else if within(answer.value, req.exact as f64, IDEAL_TOLERANCE) {
                    Outcome::Correct
                } else {
                    Outcome::WrongAnswer
                };
            }
        }
    }
    record
}

/// One connection's open delta session.
pub struct OpenSession {
    /// Session id, when the open succeeded.
    pub id: Option<u64>,
    /// The opening answer.
    pub record: Record,
}

/// Opens a delta session on the stream's opening graph.
pub fn open_session(conn: &mut Conn<'_>, stream: &DeltaStream) -> OpenSession {
    let payload = serve::encode_open_session(serve::TAG_BINARY, &stream.open_body);
    let start = Instant::now();
    let response = conn.call(&payload);
    let mut record = Record::transport(start.elapsed().as_secs_f64(), "rmat_sparse");
    let mut id = None;
    match response {
        Err(fail) => record.outcome = fail.outcome(),
        Ok(payload) => {
            if let Some(text) = error_text(&payload) {
                record.outcome = Outcome::from_error(&text);
            } else if let Ok(answer) = serve::decode_delta_response(&payload) {
                record.iterations = u64::from(answer.state_iterations);
                id = Some(answer.session_id);
                record.outcome = if within(answer.value, stream.open_exact as f64, IDEAL_TOLERANCE)
                {
                    Outcome::Correct
                } else {
                    Outcome::WrongAnswer
                };
            }
        }
    }
    OpenSession { id, record }
}

/// A connection's view of its session: benchmark edge ids (the index
/// into the stream's own edge table) mapped to the session's edge ids,
/// which the session assigns to inserts (a re-insert may revive an old id).
pub struct SessionIds {
    /// Session id.
    pub id: u64,
    map: Vec<usize>,
}

impl SessionIds {
    /// A freshly opened session: the opening graph's edges keep their ids.
    pub fn new(id: u64, edges: usize) -> Self {
        SessionIds {
            id,
            map: (0..edges).collect(),
        }
    }
}

/// Applies batch `step` of `stream` and checks the answer against the
/// exact value of the benchmark's own copy of the live graph.
pub fn apply(
    conn: &mut Conn<'_>,
    ids: &mut SessionIds,
    stream: &DeltaStream,
    step: usize,
) -> Record {
    let step = &stream.steps[step];
    let payload = serve::encode_apply_deltas(ids.id, &inputs::translate(&ids.map, &step.deltas));
    let start = Instant::now();
    let response = conn.call(&payload);
    let mut record = Record::transport(start.elapsed().as_secs_f64(), "rmat_sparse");
    match response {
        Err(fail) => record.outcome = fail.outcome(),
        Ok(payload) => {
            if let Some(text) = error_text(&payload) {
                record.outcome = Outcome::from_error(&text);
            } else if let Ok(answer) = serve::decode_delta_response(&payload) {
                record.iterations = u64::from(answer.state_iterations);
                record.outcome = if answer.new_edge_ids.len() != step.inserts {
                    Outcome::Transport
                } else if within(answer.value, step.exact as f64, IDEAL_TOLERANCE) {
                    Outcome::Correct
                } else {
                    Outcome::WrongAnswer
                };
                ids.map
                    .extend(answer.new_edge_ids.iter().map(|&id| id as usize));
            }
        }
    }
    record
}
