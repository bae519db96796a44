//! # snapedge-webapp
//!
//! A miniature web runtime — the WebKit stand-in for the snapedge
//! reproduction of *"Computation Offloading for Machine Learning Web Apps
//! in the Edge Server Environment"* (ICDCS 2018).
//!
//! It contains everything the paper's snapshot mechanism needs:
//!
//! * **MiniJS** — a JavaScript subset with a real lexer, parser,
//!   pretty-printer and interpreter ([`parser`], [`ast`]),
//! * a JS-like **heap** of objects/arrays/`Float32Array`s ([`JsValue`],
//!   [`Heap`]),
//! * a **DOM** with ids, attributes, text and canvas pixel payloads
//!   ([`Document`]),
//! * an **event loop** with listeners and an offload trigger
//!   ([`Browser`]),
//! * **host objects** so the embedder can expose native APIs like the
//!   paper's Caffe.js `model` object ([`HostObject`]),
//! * **per-tenant metering** so untrusted snapshots execute under op,
//!   heap, string, call-depth and time-slice budgets ([`MeterLimits`],
//!   [`Meter`]),
//! * and the **snapshot** engine that serializes all of the above into a
//!   self-contained web app and restores it by simply loading that app
//!   ([`Snapshot`], [`SnapshotOptions`]).
//!
//! # Example: capture and restore across browsers
//!
//! ```
//! use snapedge_webapp::{Browser, SnapshotOptions};
//!
//! # fn main() -> Result<(), snapedge_webapp::WebError> {
//! let mut client = Browser::new();
//! client.load_html(r#"<html><body><div id="out"></div></body>
//! <script>
//!   var counter = {clicks: 2};
//!   function show() { document.getElementById("out").textContent = counter.clicks; }
//! </script></html>"#)?;
//!
//! let snapshot = client.capture_snapshot(&SnapshotOptions::default())?;
//!
//! let mut server = Browser::new();
//! server.load_html(snapshot.html())?; // restore = run the snapshot app
//! server.call_function_by_name("show", &[])?;
//! assert_eq!(server.element_text("out")?, "2");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod ast;
mod browser;
mod delta;
mod dom;
mod error;
mod f32text;
mod host;
pub mod html;
pub mod intern;
mod interp;
pub mod lexer;
mod meter;
pub mod parser;
mod snapshot;
mod value;

pub use browser::{Browser, Core, Listener, PendingEvent, RunOutcome};
pub use delta::{DeltaCapture, DeltaScript, DeltaStats, StateBase};
pub use dom::{Document, DomNodeId};
pub use error::WebError;
pub use host::{FnHost, HostEffect, HostObject};
pub use intern::{Ident, Interner, Symbol};
pub use meter::{Meter, MeterLimits};
pub use snapshot::{
    is_reserved_machinery, state_eq, Snapshot, SnapshotOptions, SnapshotStats, RESERVED_PREFIX,
};
pub use value::{Heap, HeapCell, JsValue, ObjId};
