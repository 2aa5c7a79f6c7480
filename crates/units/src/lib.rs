//! Physical-quantity newtypes for the `hotwire` anemometer simulator.
//!
//! Every quantity that crosses a crate boundary in the workspace is wrapped in
//! a dedicated newtype ([C-NEWTYPE]): a bridge supply is [`Volts`], a heater
//! resistance is [`Ohms`], a flow speed is [`MetersPerSecond`]. The wrappers
//! are thin (`#[repr(transparent)]` over `f64`), implement the arithmetic that
//! is physically meaningful (`V / Ω = A`, `V · A = W`, `°C − °C = ΔK`, …) and
//! nothing else, so unit confusion becomes a type error instead of a wrong
//! measurement.
//!
//! # Example
//!
//! ```
//! use hotwire_units::{Amps, Ohms, Volts, Watts};
//!
//! let supply = Volts::new(5.0);
//! let heater = Ohms::new(50.0);
//! let current: Amps = supply / heater;
//! let power: Watts = supply * current;
//! assert!((power.get() - 0.5).abs() < 1e-12);
//! ```
//!
//! # Conventions
//!
//! * `Quantity::new(x)` wraps a raw `f64`; `quantity.get()` unwraps it.
//! * Same-unit addition/subtraction and scaling by `f64` are always available.
//! * Affine quantities (temperature) distinguish points ([`Celsius`]) from
//!   intervals ([`KelvinDelta`]).
//! * All types are `Copy`, `PartialEq`, `PartialOrd`, `Debug`, `Display`,
//!   `Default`, and serde-serializable.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[macro_use]
mod macros;

mod electrical;
mod flow;
mod thermal;
mod time;

pub use electrical::{Amps, Ohms, Volts, Watts};
pub use flow::{Meters, MetersPerSecond, Pascals};
pub use thermal::{Celsius, HeatCapacity, KelvinDelta, ThermalConductance, ThermalResistance};
pub use time::{Hertz, Seconds};
