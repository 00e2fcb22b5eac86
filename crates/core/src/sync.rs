//! The **Sync** integrator: dataflow between Log stores (§3.2).
//!
//! Sync tails a source log store and runs a dataflow pipeline
//! ([`knactor_logstore::Query`], shipped as a serializable
//! [`QuerySpec`]) over the records, delivering results to either
//!
//! * another **log store** (streaming mode — the Fig. 4 example renames
//!   the Motion knactor's `triggered` field to `motion` before loading it
//!   into the House knactor's log store), or
//! * an **object-store field** (snapshot mode — e.g. the House's running
//!   `energy` total, recomputed over the source log on every new record).
//!
//! Like Cast, a running Sync is reconfigurable through its controller
//! without touching any knactor.

use crate::integrator::{
    self, wrong_kind, Controller, Edge, Host, IntegratorConfig, Progress, Source,
};
use knactor_logstore::{LogRecord, TailEvent};
use knactor_net::api::tail_event;
use knactor_net::proto::{QuerySpec, Request};
use knactor_net::ExchangeApi;
use knactor_types::{Error, FieldPath, ObjectKey, Result, StoreId, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Where pipeline output goes.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncDest {
    /// Append each output row to a log store.
    Log(StoreId),
    /// Write into a field of an object (upserted). With one output row
    /// holding one field, the field's value is written; otherwise the
    /// whole row set is written as an array.
    ObjectField {
        store: StoreId,
        key: ObjectKey,
        field: FieldPath,
    },
}

/// How the pipeline runs relative to the source log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Each new record flows through the pipeline alone (stateless
    /// per-record operators: filter, rename, project, derive).
    Stream,
    /// Each new record triggers a re-query over the whole retained log
    /// (aggregations: running totals, averages).
    Snapshot,
}

/// Configuration of a Sync instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncConfig {
    pub name: String,
    pub source: StoreId,
    pub dest: SyncDest,
    pub query: QuerySpec,
    pub mode: SyncMode,
}

impl SyncConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        // Compile once to surface expression errors before running.
        self.query.compile()?;
        if let SyncDest::Log(dest) = &self.dest {
            if *dest == self.source {
                return Err(Error::Dxg(format!(
                    "sync {}: destination equals source ({}) — would loop",
                    self.name, dest
                )));
            }
        }
        Ok(())
    }
}

/// The Sync integrator factory.
pub struct Sync(pub(crate) Host);

impl Sync {
    pub fn new(api: Arc<dyn ExchangeApi>) -> Sync {
        Sync(Host::new(api))
    }

    /// Run the pipeline once over the full source log and deliver the
    /// results (tests, CLI, batch back-fills).
    pub async fn run_once(&self, config: &SyncConfig) -> Result<usize> {
        config.validate()?;
        let rows = self
            .0
            .api
            .log_query(config.source.clone(), config.query.clone())
            .await?;
        let n = rows.len();
        deliver(&self.0, config, rows).await?;
        Ok(n)
    }

    /// Spawn the continuous integrator.
    pub async fn spawn(self, config: SyncConfig) -> Result<Controller> {
        config.validate()?;
        Ok(integrator::spawn(|progress| SyncEdge {
            host: self.0,
            config,
            last_seq: 0,
            progress,
        }))
    }
}

/// A running Sync, as the shared run loop sees it.
struct SyncEdge {
    host: Host,
    config: SyncConfig,
    /// Resume point: highest source sequence already processed. Survives
    /// re-tailing (reconfigure, transport loss) so records are not
    /// re-delivered to the destination; resets when the source changes.
    last_seq: u64,
    progress: Arc<Progress>,
}

impl SyncEdge {
    fn advance_to(&mut self, seq: u64) {
        self.last_seq = seq;
        self.progress.tail.store(seq, Ordering::Relaxed);
    }
}

impl Edge for SyncEdge {
    const KIND: &'static str = "sync";
    const TAILS: bool = true;
    type Event = TailEvent;

    async fn reconfigure(&mut self, config: IntegratorConfig) -> Result<()> {
        let IntegratorConfig::Sync(config) = config else {
            return Err(wrong_kind(Self::KIND, &config));
        };
        config.validate()?;
        if config.source != self.config.source {
            self.advance_to(0);
        }
        self.config = config;
        Ok(())
    }

    async fn open(&mut self) -> Result<Source<TailEvent>> {
        let request = Request::LogTail {
            store: self.config.source.clone(),
            from: self.last_seq,
        };
        integrator::sources(&*self.host.api, [request], tail_event).await
    }

    /// Run tailed events through the configured pipeline: lag notices
    /// (source retention outran the tail) jump the resume point forward,
    /// replayed records are deduplicated against it, and the fresh
    /// remainder delivers as **one** destination operation. Stream mode
    /// runs the pipeline per record but ships all produced rows in a
    /// single batched append; Snapshot mode collapses the batch into one
    /// re-query — every earlier refresh is subsumed by the last.
    async fn process(&mut self, events: Vec<(usize, TailEvent)>) {
        let mut fresh: Vec<LogRecord> = Vec::new();
        for (_, event) in events {
            match event {
                // Replayed by a resumed tail; already processed.
                TailEvent::Record(record) if record.seq <= self.last_seq => {}
                TailEvent::Record(record) => {
                    self.advance_to(record.seq);
                    fresh.push(record);
                }
                TailEvent::Lagged { resume_from, .. } => {
                    if resume_from > self.last_seq + 1 {
                        self.advance_to(resume_from - 1);
                    }
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let host = &self.host;
        let config = &self.config;
        let n = fresh.len();
        let component = format!("sync:{}", config.name);
        let start = Instant::now();
        let result = match config.mode {
            SyncMode::Stream => match config.query.compile() {
                Ok(q) => {
                    let mut rows = Vec::new();
                    for record in &fresh {
                        // Per-record pipeline errors skip that record only.
                        if let Ok(mut out) = q.run(std::iter::once(record.fields.clone())) {
                            rows.append(&mut out);
                        }
                    }
                    deliver(host, config, rows).await
                }
                Err(e) => Err(e),
            },
            SyncMode::Snapshot => {
                match host
                    .api
                    .log_query(config.source.clone(), config.query.clone())
                    .await
                {
                    Ok(rows) => deliver(host, config, rows).await,
                    Err(e) => Err(e),
                }
            }
        };
        let elapsed = start.elapsed();
        // Attribute the batch cost evenly so per-record stage sums stay
        // comparable across batch sizes.
        let share = elapsed / n as u32;
        for record in &fresh {
            let trace_id = format!("{}#{}", config.source, record.seq);
            host.traces
                .record(&trace_id, &component, "process-record", share);
            crate::metrics::observe_stage(&component, "process-record", share);
            crate::metrics::inc_activation(&component);
        }
        // Errors are per-batch; keep tailing.
        let _ = result;
        self.progress
            .processed
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

async fn deliver(host: &Host, config: &SyncConfig, rows: Vec<Value>) -> Result<()> {
    if rows.is_empty() {
        return Ok(());
    }
    match &config.dest {
        SyncDest::Log(dest) => {
            host.api.log_append_batch(dest.clone(), rows).await?;
            Ok(())
        }
        SyncDest::ObjectField { store, key, field } => {
            // One row → write the row (or its single field's value when
            // the pipeline produced a single-column aggregate).
            let value = if rows.len() == 1 {
                let row = rows.into_iter().next().expect("len checked");
                match &row {
                    Value::Object(map) if map.len() == 1 => {
                        map.values().next().expect("len checked").clone()
                    }
                    _ => row,
                }
            } else {
                Value::Array(rows)
            };
            let mut patch = Value::Object(serde_json::Map::new());
            knactor_types::value::set_path(&mut patch, field, value)?;
            host.upsert(store, key, patch).await
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_net::loopback::in_process;
    use knactor_net::proto::{OpSpec, ProfileSpec};
    use knactor_rbac::Subject;
    use serde_json::json;
    use std::time::Duration;

    async fn wait_until(
        mut cond: impl FnMut() -> std::pin::Pin<Box<dyn std::future::Future<Output = bool> + 'static>>,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if cond().await {
                return;
            }
            assert!(Instant::now() < deadline, "condition not met in time");
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
    }

    #[tokio::test]
    async fn stream_renames_triggered_to_motion() {
        // Fig. 4: Motion's log → (rename) → House's log.
        let (_, _, client) = in_process(Subject::integrator("sync"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        api.log_create_store(StoreId::new("motion/telemetry"))
            .await
            .unwrap();
        api.log_create_store(StoreId::new("house/telemetry"))
            .await
            .unwrap();

        let config = SyncConfig {
            name: "motion-to-house".to_string(),
            source: StoreId::new("motion/telemetry"),
            dest: SyncDest::Log(StoreId::new("house/telemetry")),
            query: QuerySpec {
                ops: vec![
                    OpSpec::Filter {
                        expr: "this.triggered == true".into(),
                    },
                    OpSpec::Rename {
                        from: "triggered".into(),
                        to: "motion".into(),
                    },
                ],
            },
            mode: SyncMode::Stream,
        };
        let controller = Sync::new(Arc::clone(&api)).spawn(config).await.unwrap();

        api.log_append(StoreId::new("motion/telemetry"), json!({"triggered": true}))
            .await
            .unwrap();
        api.log_append(
            StoreId::new("motion/telemetry"),
            json!({"triggered": false}),
        )
        .await
        .unwrap();

        wait_until(|| {
            let api = Arc::clone(&api);
            Box::pin(async move {
                api.log_read(StoreId::new("house/telemetry"), 0)
                    .await
                    .map(|r| r.len() == 1)
                    .unwrap_or(false)
            })
        })
        .await;
        let records = api
            .log_read(StoreId::new("house/telemetry"), 0)
            .await
            .unwrap();
        assert_eq!(records[0].fields, json!({"motion": true}));
        controller.shutdown().await;
    }

    #[tokio::test]
    async fn snapshot_maintains_energy_total_in_object_store() {
        let (_, _, client) = in_process(Subject::integrator("sync"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        api.log_create_store(StoreId::new("lamp/telemetry"))
            .await
            .unwrap();
        api.create_store(StoreId::new("house/state"), ProfileSpec::Instant)
            .await
            .unwrap();

        let config = SyncConfig {
            name: "energy".to_string(),
            source: StoreId::new("lamp/telemetry"),
            dest: SyncDest::ObjectField {
                store: StoreId::new("house/state"),
                key: ObjectKey::new("house"),
                field: FieldPath::parse("energy").unwrap(),
            },
            query: QuerySpec {
                ops: vec![OpSpec::Aggregate {
                    group_by: None,
                    agg: "sum".into(),
                    field: Some("kwh".into()),
                    as_field: "total".into(),
                }],
            },
            mode: SyncMode::Snapshot,
        };
        let controller = Sync::new(Arc::clone(&api)).spawn(config).await.unwrap();

        for kwh in [0.2, 0.3, 0.5] {
            api.log_append(StoreId::new("lamp/telemetry"), json!({"kwh": kwh}))
                .await
                .unwrap();
        }
        wait_until(|| {
            let api = Arc::clone(&api);
            Box::pin(async move {
                api.get(StoreId::new("house/state"), ObjectKey::new("house"))
                    .await
                    .map(|o| {
                        o.value["energy"]
                            .as_f64()
                            .map(|v| (v - 1.0).abs() < 1e-9)
                            .unwrap_or(false)
                    })
                    .unwrap_or(false)
            })
        })
        .await;
        controller.shutdown().await;
    }

    #[tokio::test]
    async fn run_once_batch() {
        let (_, _, client) = in_process(Subject::integrator("sync"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        api.log_create_store(StoreId::new("a/log")).await.unwrap();
        api.log_create_store(StoreId::new("b/log")).await.unwrap();
        for i in 0..5 {
            api.log_append(StoreId::new("a/log"), json!({"i": i}))
                .await
                .unwrap();
        }
        let config = SyncConfig {
            name: "batch".to_string(),
            source: StoreId::new("a/log"),
            dest: SyncDest::Log(StoreId::new("b/log")),
            query: QuerySpec {
                ops: vec![OpSpec::Filter {
                    expr: "this.i % 2 == 0".into(),
                }],
            },
            mode: SyncMode::Stream,
        };
        let n = Sync::new(Arc::clone(&api)).run_once(&config).await.unwrap();
        assert_eq!(n, 3);
        assert_eq!(
            api.log_read(StoreId::new("b/log"), 0).await.unwrap().len(),
            3
        );
    }

    #[tokio::test]
    async fn self_loop_rejected() {
        let (_, _, client) = in_process(Subject::integrator("sync"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        api.log_create_store(StoreId::new("a/log")).await.unwrap();
        let config = SyncConfig {
            name: "loop".to_string(),
            source: StoreId::new("a/log"),
            dest: SyncDest::Log(StoreId::new("a/log")),
            query: QuerySpec::default(),
            mode: SyncMode::Stream,
        };
        assert!(matches!(
            Sync::new(api).spawn(config).await,
            Err(Error::Dxg(_))
        ));
    }

    #[tokio::test]
    async fn reconfigure_swaps_pipeline() {
        let (_, _, client) = in_process(Subject::integrator("sync"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        api.log_create_store(StoreId::new("src/log")).await.unwrap();
        api.log_create_store(StoreId::new("dst/log")).await.unwrap();

        let pass_all = SyncConfig {
            name: "r".to_string(),
            source: StoreId::new("src/log"),
            dest: SyncDest::Log(StoreId::new("dst/log")),
            query: QuerySpec::default(),
            mode: SyncMode::Stream,
        };
        let controller = Sync::new(Arc::clone(&api))
            .spawn(pass_all.clone())
            .await
            .unwrap();
        api.log_append(StoreId::new("src/log"), json!({"n": 1}))
            .await
            .unwrap();
        wait_until(|| {
            let api = Arc::clone(&api);
            Box::pin(async move {
                api.log_read(StoreId::new("dst/log"), 0)
                    .await
                    .map(|r| r.len() == 1)
                    .unwrap_or(false)
            })
        })
        .await;

        // New pipeline drops everything below 10. Reconfigure resumes the
        // tail from the last processed sequence, so records handled under
        // the old pipeline are not re-delivered to the destination.
        let filtered = SyncConfig {
            query: QuerySpec {
                ops: vec![OpSpec::Filter {
                    expr: "this.n >= 10".into(),
                }],
            },
            ..pass_all
        };
        controller.reconfigure(filtered).await.unwrap();
        api.log_append(StoreId::new("src/log"), json!({"n": 5}))
            .await
            .unwrap();
        api.log_append(StoreId::new("src/log"), json!({"n": 50}))
            .await
            .unwrap();
        wait_until(|| {
            let api = Arc::clone(&api);
            Box::pin(async move {
                api.log_read(StoreId::new("dst/log"), 0)
                    .await
                    .map(|r| r.iter().any(|rec| rec.fields == json!({"n": 50})))
                    .unwrap_or(false)
            })
        })
        .await;
        let records = api.log_read(StoreId::new("dst/log"), 0).await.unwrap();
        assert!(
            !records.iter().any(|r| r.fields == json!({"n": 5})),
            "filtered record leaked: {records:?}"
        );
        controller.shutdown().await;
    }
}
