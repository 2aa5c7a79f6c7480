//! Electro-thermal and fluid physics models for the hot-wire MEMS sensor.
//!
//! This crate is the *simulated hardware* of the reproduction: everything the
//! paper measured on a physical FhG/ISiT MAF die immersed in a potable-water
//! line is modelled here as a deterministic (seedable) discrete-time system.
//!
//! The building blocks, bottom-up:
//!
//! * [`fluid`] — the temperature-dependent water property model (density,
//!   viscosity, conductivity, heat capacity, Prandtl number, bubble onset).
//! * [`resistor`] — the Ti/TiN resistance-temperature law of Eq. (1),
//!   `R(T) = R₀·(1 + α·(T − T_ref))`, with manufacturing tolerance.
//! * [`kings_law`] — the empirical heat-loss law of Eq. (2),
//!   `P = (T_w − T_ref)·(A + B·vⁿ)`, its constants derived from a
//!   cylinder-in-crossflow Nusselt correlation.
//! * [`membrane`] — the lumped thermal model of the heated membrane
//!   (heat capacity, conduction to the rim, convection to the fluid).
//! * [`sensor`] — the complete two-half-bridge MAF die: two heaters with
//!   advective coupling (flow-direction sensitivity) and the interdigitated
//!   reference resistor.
//! * [`bubbles`] — outgassing-bubble nucleation/coverage on the heater
//!   surface (the paper's Fig. 7 failure mode).
//! * [`fouling`] — CaCO₃ scale deposition (the paper's Fig. 8 failure mode).
//! * [`pipe`] — bulk-vs-local velocity in the measurement line, Reynolds
//!   regime, turbulence as an Ornstein–Uhlenbeck fluctuation.
//! * [`stochastic`] — small deterministic-seed random-process helpers.
//!
//! # Example
//!
//! ```
//! use hotwire_physics::kings_law::{KingsLaw, WireGeometry};
//! use hotwire_physics::Water;
//! use hotwire_units::{Celsius, KelvinDelta, MetersPerSecond, Watts};
//!
//! let king = KingsLaw::from_kramers(&Water::potable(), Celsius::new(15.0), WireGeometry::maf_heater());
//! let overheat = KelvinDelta::new(15.0);
//! let p: Watts = king.conductance(MetersPerSecond::new(1.0)) * overheat;
//! // Heat loss grows with velocity:
//! let p2 = king.conductance(MetersPerSecond::new(2.0)) * overheat;
//! assert!(p2 > p);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bubbles;
pub mod error;
pub mod fluid;
pub mod fouling;
pub mod kings_law;
pub mod membrane;
pub mod pipe;
pub mod resistor;
pub mod sensor;
pub mod stochastic;

pub use error::PhysicsError;
pub use fluid::{FluidProperties, Water};
pub use kings_law::KingsLaw;
pub use membrane::{MembraneParams, MembraneState};
pub use resistor::Rtd;
pub use sensor::{MafDie, MafParams, SensorEnvironment};
