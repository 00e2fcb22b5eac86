//! The **Continuous** integrator: windowed queries over a log tail.
//!
//! Where Sync runs its pipeline per record (stream) or over the whole
//! retained log (snapshot), a continuous query evaluates its pipeline
//! over *windows* of records — tumbling or sliding counts
//! ([`knactor_logstore::WindowSpec`]) — and keeps the latest closed
//! window's result fresh in an Object-store key, written through the
//! same batched wire path as Cast's writes.
//!
//! **Exactly-once window accounting.** Windows are count-based over the
//! store's dense sequence numbers, so a window's boundaries are a pure
//! function of its start sequence. The destination object records the
//! last closed window's `end_seq`; on (re)spawn the controller reads it
//! back and resumes the tail from there, so a crash/restart cannot
//! re-count a record into a second window or skip one — the next window
//! starts at exactly `end_seq + 1`. A typed [`TailEvent::Lagged`] (the
//! source's retention outran us — while tailing, or while the query was
//! down) is the one unavoidable loss: the controller drops its partial
//! window, restarts windowing at the resume point, and counts the lost
//! records in `knactor_cq_lagged_total`.

use crate::integrator::{
    self, wrong_kind, Controller, Edge, Host, IntegratorConfig, Progress, Source,
};
use knactor_logstore::{TailEvent, WindowSpec, WindowState};
use knactor_net::api::tail_event;
use knactor_net::proto::{QuerySpec, Request};
use knactor_net::ExchangeApi;
use knactor_types::{ObjectKey, Result, StoreId, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousConfig {
    pub name: String,
    /// Log store whose tail feeds the windows.
    pub source: StoreId,
    /// Pipeline evaluated over each closed window's records.
    pub query: QuerySpec,
    pub window: WindowSpec,
    /// Object store + key receiving the rolling result.
    pub dest_store: StoreId,
    pub dest_key: ObjectKey,
}

impl ContinuousConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        self.query.compile()?;
        self.window.validate()?;
        Ok(())
    }
}

/// The continuous-query integrator factory.
pub struct Continuous(pub(crate) Host);

impl Continuous {
    pub fn new(api: Arc<dyn ExchangeApi>) -> Continuous {
        Continuous(Host::new(api))
    }

    /// Spawn the continuous integrator.
    pub async fn spawn(self, config: ContinuousConfig) -> Result<Controller> {
        config.validate()?;
        Ok(integrator::spawn(|progress| ContinuousEdge {
            host: self.0,
            config,
            state: None,
            progress,
        }))
    }
}

/// Windowing state, replaced whenever windowing must restart from a new
/// base (source change, window change).
struct CqState {
    window: WindowState,
    /// Highest source seq consumed (tail resume point).
    last_seq: u64,
    /// Index the next closed window is published under. Continues from
    /// the destination object across restarts.
    window_base: u64,
    /// Records accounted into *closed* windows, cumulative across
    /// restarts — the zero-missed/zero-double-counted check in tests.
    records_total: u64,
}

impl CqState {
    fn fresh(config: &ContinuousConfig) -> CqState {
        CqState {
            window: WindowState::new(config.window.clone()),
            last_seq: 0,
            window_base: 0,
            records_total: 0,
        }
    }

    /// Read the destination object back for the resume point. No object
    /// (or one this query never wrote) → start from scratch.
    async fn recover(api: &dyn ExchangeApi, config: &ContinuousConfig) -> CqState {
        let mut state = CqState::fresh(config);
        if let Ok(obj) = api
            .get(config.dest_store.clone(), config.dest_key.clone())
            .await
        {
            let v = &obj.value;
            if v["cq"].as_str() == Some(config.name.as_str()) {
                state.last_seq = v["end_seq"].as_u64().unwrap_or(0);
                state.window_base = v["window"].as_u64().map(|w| w + 1).unwrap_or(0);
                state.records_total = v["records_total"].as_u64().unwrap_or(0);
            }
        }
        state
    }
}

/// A running continuous query, as the shared run loop sees it.
struct ContinuousEdge {
    host: Host,
    config: ContinuousConfig,
    /// `None` until the next `open` recovers it from the destination
    /// object: at start, and after a same-source window change (which
    /// keeps the seq cursor the destination recorded).
    state: Option<CqState>,
    progress: Arc<Progress>,
}

impl Edge for ContinuousEdge {
    const KIND: &'static str = "cq";
    const TAILS: bool = true;
    type Event = TailEvent;

    async fn reconfigure(&mut self, config: IntegratorConfig) -> Result<()> {
        let IntegratorConfig::Continuous(config) = config else {
            return Err(wrong_kind(Self::KIND, &config));
        };
        config.validate()?;
        if config.source != self.config.source {
            // A new source starts over.
            self.state = Some(CqState::fresh(&config));
            self.progress.tail.store(0, Ordering::Relaxed);
        } else if config.window != self.config.window {
            self.state = None;
        }
        self.config = config;
        Ok(())
    }

    async fn open(&mut self) -> Result<Source<TailEvent>> {
        let last_seq = match &self.state {
            Some(state) => state.last_seq,
            None => {
                let state = CqState::recover(&*self.host.api, &self.config).await;
                self.progress.tail.store(state.last_seq, Ordering::Relaxed);
                self.state.insert(state).last_seq
            }
        };
        let request = Request::LogTail {
            store: self.config.source.clone(),
            from: last_seq,
        };
        integrator::sources(&*self.host.api, [request], tail_event).await
    }

    async fn process(&mut self, events: Vec<(usize, TailEvent)>) {
        let state = self.state.as_mut().expect("events only follow an open");
        for (_, event) in events {
            process_event(&self.host, &self.config, state, &self.progress, event).await;
        }
    }
}

async fn process_event(
    host: &Host,
    config: &ContinuousConfig,
    state: &mut CqState,
    progress: &Progress,
    event: TailEvent,
) {
    let record = match event {
        TailEvent::Record(record) => record,
        TailEvent::Lagged {
            missed,
            resume_from,
        } => {
            // Retention outran the tail: the partial window can never
            // complete (its records are gone). Drop it and restart
            // windowing at the resume point; never fabricate a window
            // from a gap.
            crate::metrics::global()
                .counter("knactor_cq_lagged_total", &[("cq", &config.name)])
                .add(missed);
            state.window = WindowState::new(config.window.clone());
            if resume_from > state.last_seq + 1 {
                state.last_seq = resume_from - 1;
                progress.tail.store(state.last_seq, Ordering::Relaxed);
            }
            return;
        }
    };
    if record.seq <= state.last_seq {
        return; // replayed by a resumed tail; already windowed
    }
    state.last_seq = record.seq;
    progress.tail.store(record.seq, Ordering::Relaxed);
    progress.processed.fetch_add(1, Ordering::Relaxed);
    for closed in state.window.push(record) {
        let start = Instant::now();
        let index = state.window_base + closed.index;
        // Only tumbling windows partition the stream; sliding windows
        // overlap by design, so the exactly-once accounting tracks
        // tumbling advancement (stride) rather than raw buffer size.
        let advanced = match config.window {
            WindowSpec::TumblingCount { .. } => closed.records.len() as u64,
            WindowSpec::SlidingCount { step, .. } => step as u64,
        };
        state.records_total += advanced;
        let result = write_window(host, config, &closed, index, state.records_total).await;
        let elapsed = start.elapsed();
        let component = format!("cq:{}", config.name);
        let trace_id = format!("{}#w{}", config.source, index);
        host.traces
            .record(&trace_id, &component, "close-window", elapsed);
        crate::metrics::observe_stage(&component, "close-window", elapsed);
        crate::metrics::inc_activation(&component);
        crate::metrics::global()
            .counter("knactor_cq_windows_total", &[("cq", &config.name)])
            .inc();
        progress.windows.fetch_add(1, Ordering::Relaxed);
        // Errors are per-window; the next window still runs.
        let _ = result;
    }
}

/// Evaluate the pipeline over one closed window and upsert the rolling
/// result object.
async fn write_window(
    host: &Host,
    config: &ContinuousConfig,
    closed: &knactor_logstore::ClosedWindow,
    index: u64,
    records_total: u64,
) -> Result<()> {
    let query = config.query.compile()?;
    let rows = closed.run(&query, &host.fns)?;
    let value = serde_json::json!({
        "cq": config.name,
        "window": index,
        "kind": config.window.kind(),
        "start_seq": closed.start_seq,
        "end_seq": closed.end_seq,
        "records": closed.records.len() as u64,
        "records_total": records_total,
        "rows": Value::Array(rows),
    });
    host.upsert(&config.dest_store, &config.dest_key, value)
        .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_logstore::LogConfig;
    use knactor_net::loopback::in_process;
    use knactor_net::proto::{OpSpec, ProfileSpec};
    use knactor_rbac::Subject;
    use serde_json::json;
    use std::time::Duration;

    async fn setup() -> Arc<dyn ExchangeApi> {
        let (_, _, client) = in_process(Subject::integrator("cq"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        api.log_create_store(StoreId::new("sensor/telemetry"))
            .await
            .unwrap();
        api.create_store(StoreId::new("house/analytics"), ProfileSpec::Instant)
            .await
            .unwrap();
        api
    }

    fn config() -> ContinuousConfig {
        ContinuousConfig {
            name: "energy-window".to_string(),
            source: StoreId::new("sensor/telemetry"),
            query: QuerySpec {
                ops: vec![OpSpec::Aggregate {
                    group_by: None,
                    agg: "sum".into(),
                    field: Some("kwh".into()),
                    as_field: "total".into(),
                }],
            },
            window: WindowSpec::tumbling(4),
            dest_store: StoreId::new("house/analytics"),
            dest_key: ObjectKey::new("energy-window"),
        }
    }

    async fn await_window(api: &Arc<dyn ExchangeApi>, index: u64) -> Value {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(obj) = api
                .get(
                    StoreId::new("house/analytics"),
                    ObjectKey::new("energy-window"),
                )
                .await
            {
                if obj.value["window"].as_u64() == Some(index) {
                    return (*obj.value).clone();
                }
            }
            assert!(Instant::now() < deadline, "window {index} never appeared");
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
    }

    #[tokio::test]
    async fn tumbling_window_keeps_rolling_sum_fresh() {
        let api = setup().await;
        let controller = Continuous::new(Arc::clone(&api))
            .spawn(config())
            .await
            .unwrap();
        for i in 0..8 {
            api.log_append(
                StoreId::new("sensor/telemetry"),
                json!({"kwh": 0.5, "i": i}),
            )
            .await
            .unwrap();
        }
        let v = await_window(&api, 1).await;
        assert_eq!(v["start_seq"].as_u64(), Some(5));
        assert_eq!(v["end_seq"].as_u64(), Some(8));
        assert_eq!(v["records_total"].as_u64(), Some(8));
        assert!((v["rows"][0]["total"].as_f64().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(controller.windows_closed(), 2);
        controller.shutdown().await;
    }

    #[tokio::test]
    async fn restart_resumes_exactly_once() {
        let api = setup().await;
        let controller = Continuous::new(Arc::clone(&api))
            .spawn(config())
            .await
            .unwrap();
        for _ in 0..4 {
            api.log_append(StoreId::new("sensor/telemetry"), json!({"kwh": 1.0}))
                .await
                .unwrap();
        }
        await_window(&api, 0).await;
        controller.shutdown().await;

        // Restart; the new controller recovers end_seq=4 and window 0
        // from the destination object, so the next window is exactly
        // records 5..=8 — nothing recounted, nothing skipped.
        let controller = Continuous::new(Arc::clone(&api))
            .spawn(config())
            .await
            .unwrap();
        for _ in 0..4 {
            api.log_append(StoreId::new("sensor/telemetry"), json!({"kwh": 2.0}))
                .await
                .unwrap();
        }
        let v = await_window(&api, 1).await;
        assert_eq!(v["start_seq"].as_u64(), Some(5));
        assert_eq!(v["end_seq"].as_u64(), Some(8));
        assert_eq!(v["records_total"].as_u64(), Some(8));
        assert!((v["rows"][0]["total"].as_f64().unwrap() - 8.0).abs() < 1e-9);
        controller.shutdown().await;
    }

    /// Regression: a query re-spawned after the source's retention passed
    /// its recorded `end_seq` used to tail on from the horizon silently.
    /// It is told what it lost — one `Lagged` for exactly those records,
    /// counted by `knactor_cq_lagged_total` — and windows on from the
    /// horizon.
    #[tokio::test]
    async fn a_restart_past_retention_is_told_what_it_lost() {
        let (_, log, client) = in_process(Subject::integrator("cq"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let spec = LogConfig {
            segment_capacity: 4,
            ..LogConfig::default()
        };
        let source = log.create_store_with("sensor/telemetry", spec).unwrap();
        let dest = StoreId::new("house/analytics");
        api.create_store(dest, ProfileSpec::Instant).await.unwrap();
        let config = ContinuousConfig {
            name: "restarted-window".to_string(),
            ..config()
        };
        let lagged = crate::metrics::global()
            .counter("knactor_cq_lagged_total", &[("cq", "restarted-window")]);

        let controller = Continuous::new(Arc::clone(&api))
            .spawn(config.clone())
            .await
            .unwrap();
        source.append_batch((0..4).map(|_| json!({"kwh": 1.0})));
        assert_eq!(await_window(&api, 0).await["end_seq"].as_u64(), Some(4));
        controller.shutdown().await;

        // While it is down, retention passes its resume point.
        source.set_retention(Some(4));
        source.append_batch((0..20).map(|_| json!({"kwh": 2.0})));
        let oldest = source.oldest_seq();
        assert!(oldest > 5, "retention should have passed end_seq");
        let before = lagged.get();
        let controller = Continuous::new(Arc::clone(&api))
            .spawn(config)
            .await
            .unwrap();
        let v = await_window(&api, 1).await;
        assert_eq!(lagged.get() - before, oldest - 1 - 4, "missed records");
        assert_eq!(v["start_seq"].as_u64(), Some(oldest));
        assert_eq!(v["records_total"].as_u64(), Some(8));
        controller.shutdown().await;
    }

    #[tokio::test]
    async fn invalid_window_rejected() {
        let api = setup().await;
        let mut bad = config();
        bad.window = WindowSpec::tumbling(0);
        assert!(Continuous::new(api).spawn(bad).await.is_err());
    }
}
