//! # npu-isa — statically scheduled VLIW ISA with the ReGate power extension
//!
//! NPUs in the TPU family execute statically scheduled VLIW instruction
//! bundles: every cycle, the in-order core issues one bundle whose slots
//! drive the systolic arrays, vector units, DMA engine, ICI, and a
//! miscellaneous slot for scalar/control operations (§2.1, §4.2 of the
//! paper). ReGate extends this ISA with the `setpm` (set power mode)
//! instruction, encoded in the miscellaneous slot, which lets the compiler
//! switch components between the `on`, `off`, `auto`, and (for SRAM)
//! `sleep` power modes.
//!
//! This crate provides:
//!
//! * the power-mode and functional-unit vocabulary ([`PowerMode`],
//!   [`FunctionalUnitType`], [`FuBitmap`]);
//! * the `setpm` instruction with its three encoding variants
//!   ([`SetPm`], Figure 14 of the paper) and a binary encoder/decoder;
//! * slot operations and VLIW bundles ([`SlotOp`], [`VliwBundle`]);
//! * a [`Program`] container with a builder, per-slot statistics, and a
//!   textual disassembly used by the examples and the instrumentation
//!   tests.
//!
//! ## Example
//!
//! ```
//! use npu_isa::{FuBitmap, FunctionalUnitType, PowerMode, Program, SetPm, SlotOp, VliwBundle};
//!
//! let mut program = Program::new("matmul_postprocess");
//! program.push(
//!     VliwBundle::new()
//!         .with_sa(0, SlotOp::sa_pop(8))
//!         .with_vu(0, SlotOp::vu_add(128)),
//! );
//! program.push(
//!     VliwBundle::new()
//!         .with_misc(SlotOp::SetPm(SetPm::functional_units(
//!             FuBitmap::from_indices(&[0, 1]),
//!             FunctionalUnitType::Vu,
//!             PowerMode::Off,
//!         ))),
//! );
//! assert_eq!(program.len(), 2);
//! assert_eq!(program.setpm_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bundle;
pub mod encode;
pub mod power;
pub mod program;
pub mod setpm;

pub use bundle::{SlotOp, VliwBundle};
pub use encode::{DecodeError, EncodedSetPm};
pub use power::{FuBitmap, FunctionalUnitType, PowerMode};
pub use program::{Program, ProgramStats};
pub use setpm::SetPm;
