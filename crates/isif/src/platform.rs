//! The assembled ISIF platform.
//!
//! Owns the four input channels, the bridge-supply DAC, the watchdog and the
//! calibration EEPROM — the parts of the paper's Fig. 3 chip that the
//! conditioning firmware in `hotwire-core` drives. The sensor lives in
//! `hotwire-physics` and is wired up by that firmware.

use crate::channel::{ChannelConfig, InputChannel};
use crate::eeprom::CalibrationStore;
use crate::timer::Watchdog;
use crate::IsifError;
use hotwire_afe::dac::ThermometerDac;
use hotwire_units::{Hertz, Volts};

/// Number of analog input channels on the chip.
pub const CHANNEL_COUNT: usize = 4;

/// The assembled mixed-signal platform.
#[derive(Debug)]
pub struct IsifPlatform {
    modulator_rate: Hertz,
    channels: [Option<InputChannel>; CHANNEL_COUNT],
    supply_dac: ThermometerDac,
    supply_code: u32,
    watchdog: Watchdog,
    eeprom: CalibrationStore,
}

impl IsifPlatform {
    /// Builds a platform clocked at `modulator_rate`, with an ideal 12-bit
    /// supply DAC spanning 0–5 V (use
    /// [`set_supply_dac`](Self::set_supply_dac) to install another one).
    pub fn new(modulator_rate: Hertz) -> Self {
        IsifPlatform {
            modulator_rate,
            channels: [None, None, None, None],
            supply_dac: ThermometerDac::ideal(12, Volts::new(5.0))
                .expect("a 12-bit DAC spanning 5 V is a valid DAC"),
            supply_code: 0,
            watchdog: Watchdog::new(16),
            eeprom: CalibrationStore::new(),
        }
    }

    /// Installs a channel configuration into slot `index`.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::NoSuchChannel`] for an index ≥ 4 or
    /// [`IsifError::Config`] for invalid parameters.
    pub fn configure_channel(
        &mut self,
        index: usize,
        config: ChannelConfig,
    ) -> Result<(), IsifError> {
        if index >= CHANNEL_COUNT {
            return Err(IsifError::NoSuchChannel { index });
        }
        self.channels[index] = Some(InputChannel::new(config, self.modulator_rate)?);
        Ok(())
    }

    /// Borrows a configured channel.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::NoSuchChannel`] if the slot is out of range or
    /// unconfigured.
    #[inline]
    pub fn channel_mut(&mut self, index: usize) -> Result<&mut InputChannel, IsifError> {
        self.channels
            .get_mut(index)
            .and_then(|c| c.as_mut())
            .ok_or(IsifError::NoSuchChannel { index })
    }

    /// Borrows several configured channels at once, in the order of
    /// `indices` — what a kernel walking `N` channels together needs.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::NoSuchChannel`] for the first index that is
    /// out of range, unconfigured or repeated.
    pub fn channels_mut<const N: usize>(
        &mut self,
        indices: [usize; N],
    ) -> Result<[&mut InputChannel; N], IsifError> {
        let mut picked: [Option<&mut InputChannel>; N] = [(); N].map(|_| None);
        for (index, slot) in self.channels.iter_mut().enumerate() {
            if let Some(lane) = indices.iter().position(|&i| i == index) {
                picked[lane] = slot.as_mut();
            }
        }
        if let Some(lane) = picked.iter().position(Option::is_none) {
            return Err(IsifError::NoSuchChannel {
                index: indices[lane],
            });
        }
        Ok(picked.map(|c| c.expect("every lane checked above")))
    }

    /// Replaces the supply DAC (e.g. with a derated instance).
    pub fn set_supply_dac(&mut self, dac: ThermometerDac) {
        self.supply_dac = dac;
        self.supply_code = self.supply_code.min(self.supply_dac.max_code());
    }

    /// Writes the bridge-supply DAC code.
    #[inline]
    pub fn set_supply_code(&mut self, code: u32) {
        self.supply_code = code.min(self.supply_dac.max_code());
    }

    /// The current bridge-supply DAC code.
    #[inline]
    pub fn supply_code(&self) -> u32 {
        self.supply_code
    }

    /// The analog bridge-supply voltage for the current code.
    #[inline]
    pub fn supply_voltage(&self) -> Volts {
        self.supply_dac.convert(self.supply_code)
    }

    /// The supply DAC itself (resolution queries).
    #[inline]
    pub fn supply_dac(&self) -> &ThermometerDac {
        &self.supply_dac
    }

    /// The watchdog.
    pub fn watchdog_mut(&mut self) -> &mut Watchdog {
        &mut self.watchdog
    }

    /// The calibration EEPROM.
    pub fn eeprom_mut(&mut self) -> &mut CalibrationStore {
        &mut self.eeprom
    }

    /// Read-only EEPROM access.
    pub fn eeprom(&self) -> &CalibrationStore {
        &self.eeprom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn platform() -> IsifPlatform {
        IsifPlatform::new(Hertz::from_kilohertz(256.0))
    }

    #[test]
    fn channel_configuration_lifecycle() {
        let mut p = platform();
        assert!(p.channel_mut(0).is_err());
        p.configure_channel(0, ChannelConfig::maf_bridge()).unwrap();
        assert!(p.channel_mut(0).is_ok());
        assert!(p.channel_mut(1).is_err());
        assert!(matches!(
            p.configure_channel(7, ChannelConfig::maf_bridge()),
            Err(IsifError::NoSuchChannel { index: 7 })
        ));
    }

    #[test]
    fn channels_borrow_together_in_the_order_asked() {
        let mut p = platform();
        for (index, gain) in [(0, 10.0), (1, 20.0), (2, 30.0)] {
            let mut config = ChannelConfig::maf_bridge();
            config.inamp.gain = gain;
            p.configure_channel(index, config).unwrap();
        }
        let [a, b] = p.channels_mut([2, 0]).unwrap();
        // The input-referred LSB is vref / 2¹⁵ / gain.
        let lsb = |gain: f64| 2.5 / 32768.0 / gain;
        assert_eq!(
            (a.input_referred_lsb().get(), b.input_referred_lsb().get()),
            (lsb(30.0), lsb(10.0))
        );
        for (indices, bad) in [([1, 3], 3), ([1, 9], 9), ([1, 1], 1)] {
            assert!(matches!(
                p.channels_mut(indices),
                Err(IsifError::NoSuchChannel { index }) if index == bad
            ));
        }
    }

    #[test]
    fn channel_converts_through_platform() {
        let mut p = platform();
        p.configure_channel(1, ChannelConfig::maf_bridge()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let chan = p.channel_mut(1).unwrap();
        let mut outputs = 0;
        for _ in 0..256 * 5 {
            if chan.sample(Volts::ZERO, 0.0, &mut rng).is_some() {
                outputs += 1;
            }
        }
        assert_eq!(outputs, 5);
    }

    #[test]
    fn supply_dac_codes_clamp() {
        let mut p = platform();
        p.set_supply_code(99_999);
        assert_eq!(p.supply_code(), 4095);
        assert!((p.supply_voltage().get() - 5.0).abs() < 1e-9);
        p.set_supply_code(0);
        assert_eq!(p.supply_voltage().get(), 0.0);
    }

    #[test]
    fn supply_resolution_is_millivolt_scale() {
        let p = platform();
        let dac = p.supply_dac();
        let lsb = dac.convert(1) - dac.convert(0);
        assert!((lsb.get() - 5.0 / 4095.0).abs() < 1e-9);
    }

    #[test]
    fn subsystems_reachable() {
        let mut p = platform();
        p.eeprom_mut().write_record(0, b"cal").unwrap();
        assert_eq!(p.eeprom().read_record(0).unwrap(), b"cal");
        p.watchdog_mut().kick();
        assert_eq!(p.watchdog_mut().reset_count(), 0);
    }
}
