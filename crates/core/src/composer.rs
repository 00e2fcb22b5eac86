//! The **Composer**: one declarative composition, diff-driven live
//! reconfiguration.
//!
//! Applications declare *what* the exchange should look like — a DXG plus
//! bindings for object exchange, named Sync pipelines for log exchange —
//! and [`Composer::apply`] makes it so. The composer decomposes the DXG
//! into per-target **edges** ([`knactor_dxg::Dxg::edges`]): each target
//! alias gets its own Cast integrator running just the slice of the graph
//! that writes it, and each Sync config is an edge of its own. Keys are
//! `cast:<alias>` and `sync:<name>`.
//!
//! A second `apply` with an evolved composition does not tear the world
//! down. It diffs the new spec against the applied one
//! ([`knactor_dxg::diff`] semantics, realized as per-edge equivalence)
//! and executes only the minimal change set:
//!
//! * **added** edges are preflighted (source stores reachable) and
//!   spawned;
//! * **modified** edges are reconfigured *in place* — the running task
//!   survives, so a Sync's tail position is kept and nothing is
//!   re-delivered;
//! * **removed** edges are drained (barrier: queued events processed)
//!   and then stopped;
//! * **untouched** edges are never disturbed — same task, same state.
//!
//! Ordering makes rollback tractable: reconfigurations run first (their
//! undo is reconfigure-back, which is offline-validatable), spawns second
//! (undo is stop), removals last (no undo ever needed — by the time an
//! edge is drained, every fallible step has succeeded). On any failure
//! the undo log runs in reverse, the previous composition stays applied,
//! and `apply` returns the error.

use crate::cast::{CastBinding, CastConfig, CastMode};
use crate::continuous::ContinuousConfig;
use crate::integrator::{Controller, Health, Host, IntegratorConfig, IntegratorStats};
use crate::runtime::Runtime;
use crate::sync::SyncConfig;
use crate::telemetry::TraceCollector;
use knactor_expr::FnRegistry;
use knactor_net::ExchangeApi;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The object-exchange half of a composition: one DXG with bindings.
/// The composer slices it per target alias; the mode applies to every
/// slice (pushdown UDF names get an `:<alias>` suffix so slices don't
/// overwrite each other's registration).
#[derive(Debug, Clone)]
pub struct CastSection {
    pub dxg: knactor_dxg::Dxg,
    pub bindings: BTreeMap<String, CastBinding>,
    pub mode: CastMode,
}

/// A full declarative composition: what should be running.
#[derive(Debug, Clone, Default)]
pub struct Composition {
    pub cast: Option<CastSection>,
    pub syncs: BTreeMap<String, SyncConfig>,
    pub continuous: BTreeMap<String, ContinuousConfig>,
}

impl Composition {
    pub fn new() -> Composition {
        Composition::default()
    }

    pub fn with_cast(
        mut self,
        dxg: knactor_dxg::Dxg,
        bindings: BTreeMap<String, CastBinding>,
        mode: CastMode,
    ) -> Composition {
        self.cast = Some(CastSection {
            dxg,
            bindings,
            mode,
        });
        self
    }

    pub fn with_sync(mut self, config: SyncConfig) -> Composition {
        self.syncs.insert(config.name.clone(), config);
        self
    }

    pub fn with_continuous(mut self, config: ContinuousConfig) -> Composition {
        self.continuous.insert(config.name.clone(), config);
        self
    }
}

/// What one [`Composer::apply`] actually did, per edge key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyReport {
    pub spawned: Vec<String>,
    pub reconfigured: Vec<String>,
    pub stopped: Vec<String>,
    pub untouched: Vec<String>,
}

impl ApplyReport {
    /// Edges whose running task was disturbed (spawned or stopped count;
    /// reconfigured does not — the task survives).
    pub fn restarts(&self) -> usize {
        self.spawned.len() + self.stopped.len()
    }
}

/// [`Composer::health`]: per-edge integrator health plus a metrics
/// snapshot from the process-wide registry.
#[derive(Debug, Clone)]
pub struct ComposerHealth {
    pub edges: Vec<(String, Health)>,
    pub metrics: crate::metrics::MetricsSnapshot,
}

impl ComposerHealth {
    /// True when every running edge's task is alive.
    pub fn all_running(&self) -> bool {
        self.edges.iter().all(|(_, h)| *h == Health::Running)
    }
}

/// How an apply would treat one edge — the dry-run view `knactorctl
/// diff` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeAction {
    Spawn,
    Reconfigure,
    Stop,
    Untouched,
}

impl std::fmt::Display for EdgeAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeAction::Spawn => write!(f, "spawn"),
            EdgeAction::Reconfigure => write!(f, "reconfigure"),
            EdgeAction::Stop => write!(f, "stop"),
            EdgeAction::Untouched => write!(f, "untouched"),
        }
    }
}

/// Classify per-target cast edges between two DXGs (dry run of the cast
/// half of an apply; the CLI `diff` command prints this). Bindings and
/// mode are assumed unchanged — spec-level changes only.
pub fn cast_edge_actions(
    old: &knactor_dxg::Dxg,
    new: &knactor_dxg::Dxg,
) -> Vec<(String, EdgeAction)> {
    let old_edges = old.edges();
    let new_edges = new.edges();
    let mut out = Vec::new();
    for (alias, old_edge) in &old_edges {
        match new_edges.get(alias) {
            None => out.push((alias.clone(), EdgeAction::Stop)),
            Some(new_edge) if knactor_dxg::equivalent(old_edge, new_edge) => {
                out.push((alias.clone(), EdgeAction::Untouched))
            }
            Some(_) => out.push((alias.clone(), EdgeAction::Reconfigure)),
        }
    }
    for alias in new_edges.keys() {
        if !old_edges.contains_key(alias) {
            out.push((alias.clone(), EdgeAction::Spawn));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A running edge: the integrator, the config it runs, and a spawn
/// generation. `instance` changes only when the edge's task is replaced —
/// reconfigure keeps it, which is exactly what the minimal-restart test
/// asserts survives.
struct EdgeSlot {
    integrator: Controller,
    config: IntegratorConfig,
    instance: u64,
}

struct Inner {
    edges: BTreeMap<String, EdgeSlot>,
    applied: Option<Composition>,
    next_instance: u64,
    applies: u64,
}

/// Exclusive async access to [`Inner`] without an async mutex (the
/// vendored tokio has none): callers *take* the state out, await freely
/// while holding it, and *put* it back. Concurrent takers poll — applies
/// are rare and short, so contention is theoretical.
struct StateCell(parking_lot::Mutex<Option<Inner>>);

impl StateCell {
    fn new(inner: Inner) -> StateCell {
        StateCell(parking_lot::Mutex::new(Some(inner)))
    }

    async fn take(&self) -> Inner {
        loop {
            if let Some(inner) = self.0.lock().take() {
                return inner;
            }
            tokio::time::sleep(std::time::Duration::from_millis(1)).await;
        }
    }

    fn put(&self, inner: Inner) {
        *self.0.lock() = Some(inner);
    }
}

/// Owns every integrator of one composition and reconciles it toward
/// newly-applied specs (see module docs).
pub struct Composer {
    name: String,
    host: Host,
    inner: Arc<StateCell>,
}

impl Composer {
    pub fn new(name: impl Into<String>, api: Arc<dyn ExchangeApi>) -> Composer {
        Composer {
            name: name.into(),
            host: Host::new(api),
            inner: Arc::new(StateCell::new(Inner {
                edges: BTreeMap::new(),
                applied: None,
                next_instance: 0,
                applies: 0,
            })),
        }
    }

    pub fn with_functions(mut self, fns: FnRegistry) -> Composer {
        self.host.fns = fns;
        self
    }

    pub fn with_traces(mut self, traces: TraceCollector) -> Composer {
        self.host.traces = traces;
        self
    }

    pub fn traces(&self) -> &TraceCollector {
        &self.host.traces
    }

    /// Register this composer with a runtime: when the runtime raises its
    /// shutdown flag, the composer drains and stops every edge inside the
    /// grace window of [`Runtime::shutdown`].
    pub fn supervise(&self, runtime: &Runtime) {
        let cell = Arc::clone(&self.inner);
        let mut signal = runtime.shutdown_signal();
        let task = tokio::spawn(async move {
            while !*signal.borrow() {
                if signal.changed().await.is_err() {
                    return;
                }
            }
            let mut inner = cell.take().await;
            let edges = std::mem::take(&mut inner.edges);
            inner.applied = None;
            cell.put(inner);
            for (_key, slot) in edges {
                let _ = slot.integrator.drain().await;
                slot.integrator.shutdown().await;
            }
        });
        runtime.replace(format!("composer:{}", self.name), task);
    }

    /// Apply a composition: diff against the applied one, execute the
    /// minimal change set, roll back on failure (see module docs).
    pub async fn apply(&self, composition: Composition) -> knactor_types::Result<ApplyReport> {
        let mut inner = self.inner.take().await;
        inner.applies += 1;
        let trace_id = format!("apply-{}", inner.applies);
        let component = format!("composer:{}", self.name);
        let start = Instant::now();
        let result = self.apply_locked(&mut inner, composition).await;
        self.inner.put(inner);
        let elapsed = start.elapsed();
        self.host
            .traces
            .record(&trace_id, &component, "apply", elapsed);
        crate::metrics::global()
            .histogram(
                "knactor_composer_apply_seconds",
                &[("composer", &self.name)],
            )
            .observe(elapsed);
        match &result {
            Ok(report) => {
                self.count("apply_ok", None);
                for (kind, edges) in [
                    ("edges_spawned", &report.spawned),
                    ("edges_reconfigured", &report.reconfigured),
                    ("edges_stopped", &report.stopped),
                ] {
                    edges.iter().for_each(|edge| self.count(kind, Some(edge)));
                }
            }
            Err(_) => self.count("apply_rolled_back", None),
        }
        result
    }

    /// One lifecycle event into `knactor_composer_events_total`; per-edge
    /// kinds carry the edge key.
    fn count(&self, kind: &str, edge: Option<&str>) {
        let mut labels = vec![("composer", self.name.as_str()), ("kind", kind)];
        labels.extend(edge.map(|edge| ("edge", edge)));
        crate::metrics::global()
            .counter("knactor_composer_events_total", &labels)
            .inc();
    }

    async fn apply_locked(
        &self,
        inner: &mut Inner,
        composition: Composition,
    ) -> knactor_types::Result<ApplyReport> {
        // 1. Derive and prevalidate every desired edge before touching
        //    any running one: an invalid spec must leave the world as-is.
        let desired = self.desired_edges(&composition);
        for config in desired.values() {
            config.validate()?;
        }

        // 2. Classify.
        let mut to_reconfigure: Vec<(String, IntegratorConfig)> = Vec::new();
        let mut to_spawn: Vec<(String, IntegratorConfig)> = Vec::new();
        let mut report = ApplyReport::default();
        for (key, config) in &desired {
            match inner.edges.get(key) {
                None => to_spawn.push((key.clone(), config.clone())),
                Some(slot) if slot.config == *config => report.untouched.push(key.clone()),
                Some(_) => to_reconfigure.push((key.clone(), config.clone())),
            }
        }
        let to_stop: Vec<String> = inner
            .edges
            .keys()
            .filter(|k| !desired.contains_key(*k))
            .cloned()
            .collect();

        // 3. Execute with an undo log. Reconfigure first, spawn second,
        //    stop last (see module docs for why this order bounds undo).
        enum Undo {
            Reconfigure(String, IntegratorConfig),
            Despawn(String),
        }
        let mut undo: Vec<Undo> = Vec::new();
        let mut failure: Option<knactor_types::Error> = None;

        'exec: {
            for (key, config) in &to_reconfigure {
                let slot = inner.edges.get_mut(key).expect("classified as running");
                let old_config = slot.config.clone();
                match slot.integrator.reconfigure(config.clone()).await {
                    Ok(()) => {
                        slot.config = config.clone();
                        undo.push(Undo::Reconfigure(key.clone(), old_config));
                        report.reconfigured.push(key.clone());
                    }
                    Err(e) => {
                        failure = Some(e);
                        break 'exec;
                    }
                }
            }
            for (key, config) in &to_spawn {
                let spawned = async {
                    config.preflight(&*self.host.api).await?;
                    config.spawn(&self.host).await
                }
                .await;
                match spawned {
                    Ok(integrator) => {
                        let instance = inner.next_instance;
                        inner.next_instance += 1;
                        inner.edges.insert(
                            key.clone(),
                            EdgeSlot {
                                integrator,
                                config: config.clone(),
                                instance,
                            },
                        );
                        undo.push(Undo::Despawn(key.clone()));
                        report.spawned.push(key.clone());
                    }
                    Err(e) => {
                        failure = Some(e);
                        break 'exec;
                    }
                }
            }
            for key in &to_stop {
                if let Some(slot) = inner.edges.remove(key) {
                    // Lossless stop: barrier first, then shut down.
                    let _ = slot.integrator.drain().await;
                    slot.integrator.shutdown().await;
                    report.stopped.push(key.clone());
                }
            }
        }

        let Some(error) = failure else {
            inner.applied = Some(composition);
            return Ok(report);
        };

        // 4. Roll back in reverse. Reconfigure-back re-runs an
        //    already-validated config on a live task; despawn is a plain
        //    stop. Neither depends on the exchange being reachable, so
        //    rollback succeeds even when the failure was a dead network.
        for step in undo.into_iter().rev() {
            match step {
                Undo::Reconfigure(key, old_config) => {
                    if let Some(slot) = inner.edges.get_mut(&key) {
                        match slot.integrator.reconfigure(old_config.clone()).await {
                            Ok(()) => slot.config = old_config,
                            Err(_) => self.count("rollback_failed", None),
                        }
                    }
                }
                Undo::Despawn(key) => {
                    if let Some(slot) = inner.edges.remove(&key) {
                        slot.integrator.shutdown().await;
                    }
                }
            }
        }
        Err(error)
    }

    /// Drain and stop every edge (manual teardown; [`Composer::supervise`]
    /// does the same on the runtime's shutdown flag).
    pub async fn shutdown_all(&self) {
        let mut inner = self.inner.take().await;
        let edges = std::mem::take(&mut inner.edges);
        inner.applied = None;
        self.inner.put(inner);
        for (_key, slot) in edges {
            let _ = slot.integrator.drain().await;
            slot.integrator.shutdown().await;
        }
    }

    /// Barrier across every running edge: all queued events processed.
    pub async fn drain_all(&self) -> knactor_types::Result<()> {
        let inner = self.inner.take().await;
        let mut result = Ok(());
        for slot in inner.edges.values() {
            if let Err(e) = slot.integrator.drain().await {
                result = Err(e);
                break;
            }
        }
        self.inner.put(inner);
        result
    }

    /// The currently-applied composition, if any.
    pub async fn applied(&self) -> Option<Composition> {
        let inner = self.inner.take().await;
        let out = inner.applied.clone();
        self.inner.put(inner);
        out
    }

    /// Keys of the currently-running edges.
    pub async fn edge_keys(&self) -> Vec<String> {
        let inner = self.inner.take().await;
        let out = inner.edges.keys().cloned().collect();
        self.inner.put(inner);
        out
    }

    /// Spawn generation of an edge — survives reconfigure, changes on
    /// respawn. `None` if the edge is not running.
    pub async fn edge_instance(&self, key: &str) -> Option<u64> {
        let inner = self.inner.take().await;
        let out = inner.edges.get(key).map(|s| s.instance);
        self.inner.put(inner);
        out
    }

    pub async fn edge_health(&self, key: &str) -> Option<Health> {
        let inner = self.inner.take().await;
        let out = inner.edges.get(key).map(|s| s.integrator.health());
        self.inner.put(inner);
        out
    }

    pub async fn edge_stats(&self, key: &str) -> Option<IntegratorStats> {
        let inner = self.inner.take().await;
        let out = inner.edges.get(key).map(|s| s.integrator.stats());
        self.inner.put(inner);
        out
    }

    /// One composite health view: per-edge integrator health plus a
    /// point-in-time snapshot of the process-wide metrics registry (the
    /// same snapshot `knactorctl metrics` scrapes over the wire).
    pub async fn health(&self) -> ComposerHealth {
        let inner = self.inner.take().await;
        let edges: Vec<(String, Health)> = inner
            .edges
            .iter()
            .map(|(key, slot)| (key.clone(), slot.integrator.health()))
            .collect();
        self.inner.put(inner);
        ComposerHealth {
            edges,
            metrics: crate::metrics::global().snapshot(),
        }
    }

    /// Decompose a composition into per-edge integrator configs.
    fn desired_edges(&self, composition: &Composition) -> BTreeMap<String, IntegratorConfig> {
        let mut out = BTreeMap::new();
        if let Some(section) = &composition.cast {
            for (alias, edge_dxg) in section.dxg.edges() {
                let bindings: BTreeMap<String, CastBinding> = section
                    .bindings
                    .iter()
                    .filter(|(a, _)| edge_dxg.inputs.contains_key(*a))
                    .map(|(a, b)| (a.clone(), b.clone()))
                    .collect();
                let mode = match &section.mode {
                    CastMode::Direct => CastMode::Direct,
                    CastMode::Pushdown { udf_name } => CastMode::Pushdown {
                        udf_name: format!("{udf_name}:{alias}"),
                    },
                };
                let config = CastConfig {
                    name: format!("{}:{alias}", self.name),
                    dxg: edge_dxg,
                    bindings,
                    mode,
                };
                out.insert(format!("cast:{alias}"), IntegratorConfig::Cast(config));
            }
        }
        for (name, config) in &composition.syncs {
            let mut config = config.clone();
            config.name = name.clone();
            out.insert(format!("sync:{name}"), IntegratorConfig::Sync(config));
        }
        for (name, config) in &composition.continuous {
            let mut config = config.clone();
            config.name = name.clone();
            out.insert(format!("cq:{name}"), IntegratorConfig::Continuous(config));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_net::loopback::in_process;
    use knactor_net::proto::ProfileSpec;
    use knactor_rbac::Subject;
    use knactor_types::StoreId;

    async fn api_with_stores(stores: &[&str]) -> Arc<dyn ExchangeApi> {
        let (_, _, client) = in_process(Subject::integrator("composer"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        for s in stores {
            api.create_store(StoreId::new(*s), ProfileSpec::Instant)
                .await
                .unwrap();
        }
        api
    }

    fn two_edge_dxg() -> knactor_dxg::Dxg {
        knactor_dxg::Dxg::parse(
            "Input:\n  A: g/v/s/a\n  B: g/v/s/b\n  C: g/v/s/c\nDXG:\n  B:\n    x: A.v\n  C:\n    y: A.v\n",
        )
        .unwrap()
    }

    fn bindings() -> BTreeMap<String, CastBinding> {
        let mut b = BTreeMap::new();
        b.insert("A".to_string(), CastBinding::correlated("a/state"));
        b.insert("B".to_string(), CastBinding::correlated("b/state"));
        b.insert("C".to_string(), CastBinding::correlated("c/state"));
        b
    }

    #[tokio::test]
    async fn first_apply_spawns_every_edge() {
        let api = api_with_stores(&["a/state", "b/state", "c/state"]).await;
        let composer = Composer::new("t", api);
        let report = composer
            .apply(Composition::new().with_cast(two_edge_dxg(), bindings(), CastMode::Direct))
            .await
            .unwrap();
        assert_eq!(report.spawned, vec!["cast:B", "cast:C"]);
        assert!(report.reconfigured.is_empty());
        assert!(report.stopped.is_empty());
        assert_eq!(composer.edge_keys().await, vec!["cast:B", "cast:C"]);
        assert_eq!(composer.edge_health("cast:B").await, Some(Health::Running));
        composer.shutdown_all().await;
    }

    #[tokio::test]
    async fn reapplying_same_composition_touches_nothing() {
        let api = api_with_stores(&["a/state", "b/state", "c/state"]).await;
        let composer = Composer::new("t", api);
        let comp = Composition::new().with_cast(two_edge_dxg(), bindings(), CastMode::Direct);
        composer.apply(comp.clone()).await.unwrap();
        let b_instance = composer.edge_instance("cast:B").await;
        let report = composer.apply(comp).await.unwrap();
        assert_eq!(report.untouched, vec!["cast:B", "cast:C"]);
        assert_eq!(report.restarts(), 0);
        assert_eq!(composer.edge_instance("cast:B").await, b_instance);
        composer.shutdown_all().await;
    }

    #[tokio::test]
    async fn invalid_composition_is_rejected_before_touching_edges() {
        let api = api_with_stores(&["a/state", "b/state", "c/state"]).await;
        let before = crate::metrics::global().snapshot();
        let composer = Composer::new("t-invalid", api);
        composer
            .apply(Composition::new().with_cast(two_edge_dxg(), bindings(), CastMode::Direct))
            .await
            .unwrap();
        let instance = composer.edge_instance("cast:B").await;
        // Unbound alias D → prevalidation fails, nothing changes.
        let bad = knactor_dxg::Dxg::parse(
            "Input:\n  A: g/v/s/a\n  B: g/v/s/b\n  D: g/v/s/d\nDXG:\n  B:\n    x: D.v\n",
        )
        .unwrap();
        let err = composer
            .apply(Composition::new().with_cast(bad, bindings(), CastMode::Direct))
            .await;
        assert!(err.is_err());
        assert_eq!(composer.edge_instance("cast:B").await, instance);
        assert_eq!(composer.edge_health("cast:B").await, Some(Health::Running));
        // One lifecycle event per outcome, and per edge for the spawns.
        let events = crate::metrics::global().snapshot().delta(&before);
        let count = |labels: &[(&str, &str)]| {
            let labels = [&[("composer", "t-invalid")], labels].concat();
            events.counter_value("knactor_composer_events_total", &labels)
        };
        assert_eq!(count(&[("kind", "apply_ok")]), Some(1));
        assert_eq!(count(&[("kind", "apply_rolled_back")]), Some(1));
        assert_eq!(
            count(&[("kind", "edges_spawned"), ("edge", "cast:B")]),
            Some(1)
        );
        composer.shutdown_all().await;
    }

    #[tokio::test]
    async fn pushdown_retarget_to_missing_store_fails_typed_and_rolls_back() {
        // Regression: reconfiguring a pushdown edge toward a store the
        // exchange does not host used to "succeed" (validation is
        // offline and register_udf is exchange-global), leaving the
        // stale UDF serving the old target while the watch loop
        // dead-looped. It must surface a typed error and keep the old
        // composition applied.
        let api = api_with_stores(&["a/state", "b/state", "c/state"]).await;
        let composer = Composer::new("t", api);
        let pushdown = CastMode::Pushdown {
            udf_name: "t-udf".to_string(),
        };
        composer
            .apply(Composition::new().with_cast(two_edge_dxg(), bindings(), pushdown.clone()))
            .await
            .unwrap();
        let instance = composer.edge_instance("cast:B").await;

        // Same spec, but alias B now binds a store nobody created.
        let mut bad_bindings = bindings();
        bad_bindings.insert("B".to_string(), CastBinding::correlated("ghost/state"));
        let err = composer
            .apply(Composition::new().with_cast(two_edge_dxg(), bad_bindings, pushdown))
            .await
            .unwrap_err();
        assert!(
            matches!(
                &err,
                knactor_types::Error::PushdownUnavailable { udf, store }
                    if udf == "t-udf:B" && store == "ghost/state"
            ),
            "want typed PushdownUnavailable, got {err:?}"
        );

        // Old composition is still applied and the edge never restarted.
        assert_eq!(composer.edge_instance("cast:B").await, instance);
        assert_eq!(composer.edge_health("cast:B").await, Some(Health::Running));
        let applied = composer.applied().await.expect("prior apply sticks");
        assert_eq!(
            applied.cast.unwrap().bindings["B"],
            CastBinding::correlated("b/state")
        );
        composer.shutdown_all().await;
    }

    #[test]
    fn cast_edge_actions_classify_all_four_ways() {
        let old = knactor_dxg::Dxg::parse(
            "Input:\n  A: g/v/s/a\n  B: g/v/s/b\n  C: g/v/s/c\nDXG:\n  B:\n    x: A.v\n  C:\n    y: A.v\n",
        )
        .unwrap();
        let new = knactor_dxg::Dxg::parse(
            "Input:\n  A: g/v/s/a\n  B: g/v/s/b\n  D: g/v/s/d\nDXG:\n  B:\n    x: A.v + 1\n  D:\n    z: A.v\n",
        )
        .unwrap();
        let actions = cast_edge_actions(&old, &new);
        assert_eq!(
            actions,
            vec![
                ("B".to_string(), EdgeAction::Reconfigure),
                ("C".to_string(), EdgeAction::Stop),
                ("D".to_string(), EdgeAction::Spawn),
            ]
        );
        let same = cast_edge_actions(&old, &old);
        assert!(same.iter().all(|(_, a)| *a == EdgeAction::Untouched));
    }
}
