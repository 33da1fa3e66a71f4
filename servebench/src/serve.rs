//! Driving the serving engine: closed- and open-loop timed windows that
//! check every response against its reference output.

use crate::load::{closed_input, Arrival};
use ios_backend::TensorData;
use ios_serve::{ResponseHandle, ScheduleSource, ServeEngine};
use ios_telemetry::Tracer;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One correct response, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Index into the workload's tenant list.
    pub tenant: usize,
    /// Latency the client counts, ms: from submission in a closed loop,
    /// from the due time in an open loop.
    pub latency_ms: f64,
    /// Time queued before the batch dispatched, ms.
    pub queue_ms: f64,
    /// Submission to completion inside the engine, ms.
    pub total_ms: f64,
    /// Wall time of the batch the request ran in, ms.
    pub exec_ms: f64,
    /// Size of that batch.
    pub batch_size: usize,
    /// Whether the batch ran a schedule specialized for its exact size.
    pub exact: bool,
}

/// The outcome of one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Correct responses.
    pub replies: Vec<Reply>,
    /// Requests offered in the window.
    pub attempted: u64,
    /// Requests shed, expired, refused or answered wrongly.
    pub failed: u64,
    /// Responses whose outputs differ from the reference in any bit.
    pub mismatches: u64,
    /// From the window's start to its last completion, s.
    pub seconds: f64,
    /// How late each request was sent, ms: past its due time in an open
    /// loop, after the previous answer in a closed one.
    pub lags_ms: Vec<f64>,
}

impl Window {
    /// Books one request: a checked reply, a reply whose outputs differ
    /// from the reference (`Some(None)`), or no reply at all (`None`).
    fn record(
        &mut self,
        outcome: Option<Option<Reply>>,
        spans: Option<&Spans<'_>>,
        id: u64,
        submit: Instant,
    ) {
        match outcome {
            Some(Some(reply)) => {
                if let Some(spans) = spans {
                    spans.request(id, submit, &reply);
                }
                self.replies.push(reply);
            }
            Some(None) => {
                self.mismatches += 1;
                self.failed += 1;
            }
            None => self.failed += 1,
        }
    }
}

/// Whether `outputs` equal `reference` bit for bit.
#[must_use]
pub fn same_bits<'a>(
    outputs: impl ExactSizeIterator<Item = &'a TensorData>,
    reference: &[TensorData],
) -> bool {
    outputs.len() == reference.len()
        && outputs.zip(reference).all(|(a, b)| {
            a.shape == b.shape
                && a.data.len() == b.data.len()
                && a.data
                    .iter()
                    .zip(&b.data)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Spans of the benchmark's own tracer, anchored to one window's start.
struct Spans<'a> {
    tracer: &'a Tracer,
    t0: Instant,
    t0_ns: u64,
}

impl Spans<'_> {
    fn ns(&self, at: Instant) -> u64 {
        self.t0_ns + at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a request span and its queue and batch-execution children.
    fn request(&self, id: u64, submit: Instant, reply: &Reply) {
        let start = self.ns(submit);
        let total = (reply.total_ms * 1e6) as u64;
        let queue = (reply.queue_ms * 1e6) as u64;
        let exec = ((reply.exec_ms * 1e6) as u64).min(total);
        let bs = reply.batch_size as u64;
        self.tracer
            .record_span_at("serve.request", "bench", start, total, id, bs);
        self.tracer
            .record_span_at("serve.queue", "bench", start, queue, id, bs);
        self.tracer.record_span_at(
            "serve.batch_exec",
            "bench",
            start + total - exec,
            exec,
            id,
            bs,
        );
    }
}

fn reply(
    response: &ios_serve::InferenceResponse,
    tenant: usize,
    latency_ms: f64,
    reference: &[TensorData],
) -> Option<Reply> {
    same_bits(response.outputs.iter().map(|o| o.tensor()), reference).then(|| Reply {
        tenant,
        latency_ms,
        queue_ms: response.queue_us / 1e3,
        total_ms: response.total_us / 1e3,
        exec_ms: response.device_us * response.batch_size as f64 / 1e3,
        batch_size: response.batch_size,
        exact: response.schedule_source == ScheduleSource::Exact,
    })
}

/// One client sending its next request when the previous answer arrived,
/// until `seconds` have passed. Inputs cycle through the pool in a
/// seed-determined order.
pub fn closed_loop(
    engine: &ServeEngine,
    inputs: &[TensorData],
    references: &[Vec<TensorData>],
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Window {
    let mut window = Window::default();
    let t0 = Instant::now();
    let spans = tracer.map(|tracer| Spans {
        tracer,
        t0,
        t0_ns: tracer.now_ns(),
    });
    let mut last_done = t0;
    let mut i = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let k = closed_input(seed, i, inputs.len());
        let input = inputs[k].clone();
        let submit = Instant::now();
        window
            .lags_ms
            .push((submit - last_done).as_secs_f64() * 1e3);
        window.attempted += 1;
        let outcome = engine
            .submit(input)
            .ok()
            .and_then(|h| h.wait_outcome().ok());
        last_done = Instant::now();
        let latency_ms = (last_done - submit).as_secs_f64() * 1e3;
        let outcome = outcome.map(|r| reply(&r, 0, latency_ms, &references[k]));
        window.record(outcome, spans.as_ref(), i, submit);
        i += 1;
    }
    window.seconds = (last_done - t0).as_secs_f64();
    window
}

/// What the submit thread hands the collector for one arrival.
struct Submitted {
    arrival: Arrival,
    id: u64,
    due: Instant,
    submit: Instant,
    handle: Option<ResponseHandle>,
}

/// Poisson traffic on a fixed schedule: one thread submits each request
/// at its due time whatever the engine is doing, one thread collects
/// and checks the answers.
pub fn open_loop(
    engine: &ServeEngine,
    inputs: &[TensorData],
    references: &[Vec<TensorData>],
    schedule: &[Arrival],
    tenants: &[(&str, u32)],
    tracer: Option<&Tracer>,
) -> Window {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let t0 = Instant::now() + Duration::from_millis(5);
    let spans = tracer.map(|tracer| Spans {
        tracer,
        t0,
        t0_ns: tracer.now_ns() + 5_000_000,
    });
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (id, &arrival) in schedule.iter().enumerate() {
                let input = inputs[arrival.input].clone();
                let due = t0 + Duration::from_secs_f64(arrival.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submit = Instant::now();
                let handle = engine
                    .submit_for_tenant(tenants[arrival.tenant].0, input)
                    .ok();
                let sent = Submitted {
                    arrival,
                    id: id as u64,
                    due,
                    submit,
                    handle,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut window = Window::default();
            let mut last_done = t0;
            for sent in rx {
                window.attempted += 1;
                let lag = sent.submit - sent.due;
                window.lags_ms.push(lag.as_secs_f64() * 1e3);
                let outcome = sent
                    .handle
                    .and_then(|h| h.wait_outcome().ok())
                    .map(|response| {
                        let done = sent.submit + Duration::from_secs_f64(response.total_us / 1e6);
                        last_done = last_done.max(done);
                        let latency_ms = (done - sent.due).as_secs_f64() * 1e3;
                        let reference = &references[sent.arrival.input];
                        reply(&response, sent.arrival.tenant, latency_ms, reference)
                    });
                window.record(outcome, spans.as_ref(), sent.id, sent.submit);
            }
            window.seconds = (last_done - t0).as_secs_f64();
            window
        });
        collector.join().expect("collector thread")
    })
}
