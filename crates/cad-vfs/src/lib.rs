//! # cad-vfs — the UNIX file system substrate
//!
//! An in-memory, UNIX-like hierarchical file system with a
//! deterministic I/O cost model.
//!
//! In the paper, the JESSI-COMMON-Framework (JCF) keeps all metadata
//! and design data inside the OMS object-oriented database, and tool
//! encapsulation works by *copying* design data *"to and from the
//! database via the UNIX file system"* (§2.1). FMCAD, by contrast,
//! stores its libraries directly **in** the file system. The file
//! system is therefore the shared substrate of the whole reproduction,
//! and its copy costs are what make the paper's §3.6 performance
//! observation reproducible: metadata operations are cheap while
//! design-data transfers grow linearly with design size — even for
//! read-only access.
//!
//! # Examples
//!
//! ```
//! use cad_vfs::{Vfs, VfsPath};
//!
//! # fn main() -> Result<(), cad_vfs::VfsError> {
//! let mut fs = Vfs::new();
//! let lib = VfsPath::parse("/projects/alu/libs")?;
//! fs.mkdir_all(&lib)?;
//! fs.write(&lib.join("cds.lib")?, b"DEFINE alu ./alu".to_vec())?;
//!
//! let before = fs.meter();
//! fs.copy_tree(&VfsPath::parse("/projects/alu")?, &VfsPath::parse("/workspace")?)?;
//! let cost = fs.meter().since(&before);
//! assert!(cost.bytes_read == cost.bytes_written);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blob;
mod cost;
mod error;
mod fault;
mod fs;
mod path;
mod rng;

pub use blob::Blob;
pub use cost::{CostMeter, IoCostModel};
pub use error::{VfsError, VfsResult};
pub use fault::{FaultPlan, FaultStats};
pub use fs::{Change, Metadata, NodeKind, Vfs};
pub use path::VfsPath;
pub use rng::SplitMix64;
