//! Table 2: latency of one shipment request, with per-stage breakdown.
//!
//! Stage definitions (matching the paper's columns):
//!
//! * **C-I** — Checkout → integrator: from the order's commit in the
//!   Checkout store to the start of the Cast activation that reads it.
//!   Dominated by the exchange's watch-delivery behaviour (list-watch
//!   polling for K-apiserver, push for K-redis).
//! * **I** — integrator compute: expression evaluation (Direct) or the
//!   whole in-exchange UDF execution (pushdown).
//! * **I-S** — integrator → Shipping: writing the shipment request into
//!   Shipping's store. Zero for pushdown — the write happens inside the
//!   exchange during **I**.
//! * **S** — shipment processing: from the shipment request's commit to
//!   the Shipping reconciler's quote/tracking commit (includes the
//!   simulated carrier API, the paper's ≈446 ms bottleneck).
//! * **Prop.** — Total − S: everything the composition mechanism adds.
//! * **Total** — order commit → tracking id back on the order.
//!
//! Ground-truth commit times come from *raw* store watches (immediate,
//! regardless of engine profile), so the measured stages see exactly the
//! delays the engine profiles inject plus real WAL/fsync costs.

use knactor_apps::retail::knactor_app::{self, RetailOptions};
use knactor_apps::retail::rpc_app::{serve_providers, CheckoutRpc};
use knactor_apps::retail::sample_order;
use knactor_core::CastMode;
use knactor_net::loopback::in_process;
use knactor_net::proto::ProfileSpec;
use knactor_net::ExchangeApi;
use knactor_rbac::Subject;
use knactor_types::{Result, StoreId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stage over a setup's iterations: the median and the interquartile
/// range (quantiles interpolated linearly between closest ranks).
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: Duration,
    pub iqr: Duration,
}

impl Spread {
    fn of(mut samples: Vec<Duration>) -> Spread {
        samples.sort();
        let last = (samples.len() - 1) as f64;
        let at = |p: f64| {
            let rank = last * p;
            let (lo, hi) = (samples[rank as usize], samples[rank.ceil() as usize]);
            lo + (hi - lo).mul_f64(rank.fract())
        };
        let (median, iqr) = (at(0.5), at(0.75) - at(0.25));
        Spread { median, iqr }
    }
}

/// Stage breakdown for one setup.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub setup: String,
    /// `None` renders as `-` (stages that do not exist for RPC).
    pub c_i: Option<Spread>,
    pub i: Option<Spread>,
    pub i_s: Option<Spread>,
    pub s: Spread,
    pub prop: Spread,
    pub total: Spread,
}

/// `median ±IQR/2`, in milliseconds.
fn ms(d: Spread) -> String {
    format!(
        "{:.1} ±{:.1}",
        d.median.as_secs_f64() * 1e3,
        d.iqr.as_secs_f64() * 1e3 / 2.0
    )
}

fn ms_opt(d: Option<Spread>) -> String {
    d.map(ms).unwrap_or_else(|| "-".to_string())
}

impl Breakdown {
    pub fn row(&self) -> Vec<String> {
        vec![
            self.setup.clone(),
            ms_opt(self.c_i),
            ms_opt(self.i),
            ms_opt(self.i_s),
            ms(self.s),
            ms(self.prop),
            ms(self.total),
        ]
    }
}

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Simulated carrier processing (the paper measured ≈446 ms).
    pub shipment_processing: Duration,
    /// Modeled pod-to-pod RTT added to every RPC call in the baseline.
    pub rpc_rtt: Duration,
    pub iterations: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            shipment_processing: Duration::from_millis(446),
            rpc_rtt: Duration::from_micros(300),
            iterations: 5,
        }
    }
}

impl Params {
    /// Fast variant for CI and tests.
    pub fn quick() -> Params {
        Params {
            shipment_processing: Duration::from_millis(30),
            rpc_rtt: Duration::from_micros(300),
            iterations: 5,
        }
    }
}

/// Measure the RPC baseline.
pub async fn measure_rpc(params: &Params) -> Result<Breakdown> {
    let server = serve_providers(params.shipment_processing).await?;
    let checkout =
        CheckoutRpc::connect_with_latency(server.local_addr().expect("bound"), params.rpc_rtt)
            .await?;
    let mut totals = Vec::new();
    for i in 0..params.iterations {
        let order = sample_order(1200.0 + i as f64);
        let t0 = Instant::now();
        checkout.place_order(&order).await?;
        totals.push(t0.elapsed());
    }
    server.shutdown().await;
    // Calibrate S to the timer's actual behaviour (tokio sleeps overshoot
    // by ~a millisecond); otherwise the overshoot would be misattributed
    // to propagation. The Knactor setups measure S between store commits,
    // which absorbs the same overshoot automatically.
    let mut sleeps = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        tokio::time::sleep(params.shipment_processing).await;
        sleeps.push(t.elapsed());
    }
    let s = Spread::of(sleeps);
    let prop = totals.iter().map(|t| t.saturating_sub(s.median)).collect();
    Ok(Breakdown {
        setup: "RPC".to_string(),
        c_i: None,
        i: None,
        i_s: None,
        s,
        prop: Spread::of(prop),
        total: Spread::of(totals),
    })
}

/// Measure one Knactor configuration.
pub async fn measure_knactor(
    setup: &str,
    profile: ProfileSpec,
    mode: CastMode,
    params: &Params,
) -> Result<Breakdown> {
    let (object, _, client) = in_process(Subject::integrator("retail"));
    // Fresh WAL directory per measurement: a durable profile must not
    // replay a previous run's state.
    let run = format!("knactor-table2-{}-{setup}", std::process::id());
    let data_dir = std::env::temp_dir().join(run);
    let _ = std::fs::remove_dir_all(&data_dir);
    let client = client.with_data_dir(&data_dir);
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    let app = knactor_app::deploy(
        Arc::clone(&api),
        RetailOptions {
            shipment_processing: params.shipment_processing,
            profile,
            mode: mode.clone(),
        },
    )
    .await?;

    // Ground-truth watches, immediate regardless of engine profile.
    let checkout_store = object.store(&StoreId::new("checkout/state"))?;
    let shipping_store = object.store(&StoreId::new("shipping/state"))?;

    let mut acc = StageAcc::default();
    for i in 0..params.iterations {
        let key = format!("bench-order-{i}");
        let mut checkout_events = checkout_store.watch_from(checkout_store.revision())?;
        let mut shipping_events = shipping_store.watch_from(shipping_store.revision())?;
        app.traces.clear();

        let order = sample_order(1200.0 + i as f64);
        let t_order = Instant::now();
        api.create(StoreId::new("checkout/state"), key.as_str().into(), order)
            .await?;

        // Commit timestamps from the raw event streams.
        let mut t_ship_request: Option<Instant> = None;
        let mut t_quote: Option<Instant> = None;
        let mut t_complete: Option<Instant> = None;
        let deadline = Instant::now() + params.shipment_processing + Duration::from_secs(20);
        while t_complete.is_none() {
            if Instant::now() > deadline {
                return Err(knactor_types::Error::Timeout(format!(
                    "{setup}: order {key} never completed"
                )));
            }
            tokio::select! {
                // Biased: drain shipping events first so the causal order
                // (request → quote → completion) is observed even when
                // both channels have pending events.
                biased;
                e = shipping_events.recv() => {
                    let Some(e) = e else { break };
                    if e.key.as_str() != key { continue; }
                    let now = Instant::now();
                    let has_addr = e.value.get("addr").map(|v| !v.is_null()).unwrap_or(false);
                    let has_id = e.value.get("id").map(|v| !v.is_null()).unwrap_or(false);
                    if has_addr && t_ship_request.is_none() {
                        t_ship_request = Some(now);
                    }
                    if has_id && t_quote.is_none() {
                        t_quote = Some(now);
                    }
                }
                e = checkout_events.recv() => {
                    let Some(e) = e else { break };
                    if e.key.as_str() != key { continue; }
                    let done = e.value["order"].get("trackingID")
                        .map(|v| !v.is_null()).unwrap_or(false);
                    if done && t_complete.is_none() {
                        t_complete = Some(Instant::now());
                    }
                }
            }
        }
        let (Some(t_ship_request), Some(t_quote), Some(t_complete)) =
            (t_ship_request, t_quote, t_complete)
        else {
            return Err(knactor_types::Error::Internal(format!(
                "{setup}: missing stage timestamps (ship_request={} quote={} complete={})",
                t_ship_request.is_some(),
                t_quote.is_some(),
                t_complete.is_some(),
            )));
        };

        // Integrator-side spans for this order.
        let spans = app.traces.trace(&key);
        let first_read = spans
            .iter()
            .filter(|s| s.stage == "read-sources" || s.stage == "pushdown-execute")
            .min_by_key(|s| s.started_at());
        let c_i = first_read
            .map(|s| s.started_at().saturating_duration_since(t_order))
            .unwrap_or(Duration::ZERO);
        let (i_stage, i_s_stage) = match &mode {
            CastMode::Pushdown { .. } => {
                let i = spans
                    .iter()
                    .filter(|s| s.stage == "pushdown-execute")
                    .map(|s| s.duration)
                    .max()
                    .unwrap_or(Duration::ZERO);
                (i, Duration::ZERO)
            }
            CastMode::Direct => {
                let reads: Duration = first_read.map(|s| s.duration).unwrap_or(Duration::ZERO);
                let eval: Duration = spans
                    .iter()
                    .filter(|s| s.stage == "evaluate")
                    .map(|s| s.duration)
                    .sum();
                let write_s = spans
                    .iter()
                    .filter(|s| s.stage == "write:S")
                    .map(|s| s.duration)
                    .max()
                    .unwrap_or(Duration::ZERO);
                (reads + eval, write_s)
            }
        };

        let s = t_quote.duration_since(t_ship_request);
        let total = t_complete.duration_since(t_order);
        acc.0.push([c_i, i_stage, i_s_stage, s, total]);
    }

    app.shutdown().await;
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(acc.finish(setup))
}

/// Every iteration's stages for one setup: C-I, I, I-S, S and Total.
#[derive(Default)]
struct StageAcc(Vec<[Duration; 5]>);

impl StageAcc {
    fn finish(self, setup: &str) -> Breakdown {
        let column = |c: usize| Spread::of(self.0.iter().map(|stages| stages[c]).collect());
        let prop = self.0.iter().map(|[.., s, total]| total.saturating_sub(*s));
        Breakdown {
            setup: setup.to_string(),
            c_i: Some(column(0)),
            i: Some(column(1)),
            i_s: Some(column(2)),
            s: column(3),
            prop: Spread::of(prop.collect()),
            total: column(4),
        }
    }
}

/// Run all four setups.
pub async fn run_all(params: &Params) -> Result<Vec<Breakdown>> {
    let mut rows = Vec::new();
    rows.push(measure_rpc(params).await?);
    rows.push(
        measure_knactor(
            "K-apiserver",
            ProfileSpec::Apiserver,
            CastMode::Direct,
            params,
        )
        .await?,
    );
    rows.push(measure_knactor("K-redis", ProfileSpec::Redis, CastMode::Direct, params).await?);
    rows.push(
        measure_knactor(
            "K-redis-udf",
            ProfileSpec::Redis,
            CastMode::Pushdown {
                udf_name: "retail-dxg".to_string(),
            },
            params,
        )
        .await?,
    );
    Ok(rows)
}

/// Render the paper-style table.
pub fn render(rows: &[Breakdown]) -> String {
    crate::render_table(
        &["Setup", "C-I", "I", "I-S", "S", "Prop. (ms)", "Total (ms)"],
        &rows.iter().map(Breakdown::row).collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn quick_run_has_expected_shape() {
        let params = Params::quick();
        let rows = run_all(&params).await.unwrap();
        assert_eq!(rows.len(), 4);
        let by_name = |n: &str| rows.iter().find(|r| r.setup == n).unwrap().clone();
        let rpc = by_name("RPC");
        let apiserver = by_name("K-apiserver");
        let redis = by_name("K-redis");
        let udf = by_name("K-redis-udf");

        // Every ordering is judged on medians. S dominates everywhere.
        for r in &rows {
            assert!(
                r.s.median >= params.shipment_processing / 2,
                "{}: S = {:?}",
                r.setup,
                r.s
            );
            assert!(r.total.median >= r.s.median, "{}", r.setup);
        }
        // Propagation ordering: apiserver ≫ redis ≥ udf; RPC smallest.
        assert!(
            apiserver.prop.median > redis.prop.median,
            "apiserver {:?} !> redis {:?}",
            apiserver.prop,
            redis.prop
        );
        assert!(
            redis.prop.median >= udf.prop.median || redis.prop.median < Duration::from_millis(2),
            "redis {:?} vs udf {:?}",
            redis.prop,
            udf.prop
        );
        assert!(rpc.prop.median < apiserver.prop.median);
        // The apiserver's C-I reflects poll-based watch delivery (≥ ~5ms).
        assert!(apiserver.c_i.unwrap().median > Duration::from_millis(4));
        // Pushdown eliminates the I-S hop.
        assert_eq!(udf.i_s.unwrap().median, Duration::ZERO);
        let _ = render(&rows);
    }
}
