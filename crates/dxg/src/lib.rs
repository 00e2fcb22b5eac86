//! # knactor-dxg
//!
//! **Data exchange graphs** (DXGs): the declarative specification language
//! the Cast integrator executes (Fig. 6 of the paper).
//!
//! A DXG spec is a YAML document with two sections:
//!
//! ```yaml
//! Input:
//!   C: OnlineRetail/v1/Checkout/knactor-checkout
//!   S: OnlineRetail/v1/Shipping/knactor-shipping
//! DXG:
//!   C.order:
//!     shippingCost: >
//!       currency_convert(S.quote.price, S.quote.currency, this.currency)
//!   S:
//!     addr: C.order.address
//!     method: >
//!       "air" if C.order.cost > 1000 else "ground"
//! ```
//!
//! * **Input** binds aliases to knactor references. At activation time the
//!   integrator binds each alias to one concrete object (store + key).
//! * **DXG** is a set of *assignments*: `alias(.base).field: expression`.
//!   Keys with dots (`C.order`) set a base path inside the target object;
//!   nested mappings extend the path. `this` in an expression refers to
//!   the assignment's target base (`this.currency` under `C.order:` means
//!   `C.order.currency`).
//!
//! The crate provides:
//!
//! * [`spec`] — parsing into a [`spec::Dxg`] of [`spec::Assignment`]s
//! * [`analyze`] — static analysis (§5 "framework support for
//!   composition"): dependency-cycle detection, duplicate-target
//!   detection, unknown-reference checking against registered schemas,
//!   unused-state and unfilled-external-field reporting
//! * [`plan`] — an execution [`plan::Plan`]: dependency-respecting order
//!   with per-target consolidation (§3.3), plus export of any alias's
//!   assignments as store-side UDFs for pushdown

pub mod analyze;
pub mod diff;
pub mod plan;
pub mod spec;

pub use analyze::{Analysis, Finding, Severity};
pub use diff::{affected_targets, diff, equivalent, Change};
pub use plan::{Plan, Step};
pub use spec::{Assignment, Dxg, InputRef};
