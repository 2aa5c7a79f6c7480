//! The watchdog — one of ISIF's "standard IPs such as timers, watchdog".

/// A windowless watchdog: must be kicked at least every `timeout` ticks or it
/// records a reset event (the conditioning firmware kicks it once per healthy
/// control iteration).
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: u32,
    counter: u32,
    resets: u64,
    pending_expiry: bool,
}

impl Watchdog {
    /// Creates a watchdog with the given timeout in ticks (≥ 1).
    pub fn new(timeout: u32) -> Self {
        let timeout = timeout.max(1);
        Watchdog {
            timeout,
            counter: timeout,
            resets: 0,
            pending_expiry: false,
        }
    }

    /// Feeds the watchdog (restarts the window).
    pub fn kick(&mut self) {
        self.counter = self.timeout;
    }

    /// Advances one tick; returns `true` if the watchdog expired (a reset
    /// event is recorded, the window restarts, and the expiry is latched
    /// until [`Watchdog::take_expiry`] collects it).
    pub fn tick(&mut self) -> bool {
        self.counter -= 1;
        if self.counter == 0 {
            self.counter = self.timeout;
            self.resets += 1;
            self.pending_expiry = true;
            true
        } else {
            false
        }
    }

    /// Collects and clears the latched expiry flag.
    ///
    /// Expiry is edge-triggered at [`Watchdog::tick`] but supervision code
    /// usually runs later in the loop; the latch turns the missed edge into
    /// a recoverable event the supervisor can consume exactly once.
    pub fn take_expiry(&mut self) -> bool {
        core::mem::take(&mut self.pending_expiry)
    }

    /// Number of expiry events so far.
    #[inline]
    pub fn reset_count(&self) -> u64 {
        self.resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kicked_watchdog_never_fires() {
        let mut w = Watchdog::new(5);
        for _ in 0..100 {
            w.kick();
            assert!(!w.tick());
        }
        assert_eq!(w.reset_count(), 0);
    }

    #[test]
    fn starved_watchdog_fires() {
        let mut w = Watchdog::new(5);
        let mut fired = 0;
        for _ in 0..15 {
            if w.tick() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
        assert_eq!(w.reset_count(), 3);
    }

    #[test]
    fn watchdog_expiry_latches_until_taken() {
        let mut w = Watchdog::new(2);
        assert!(!w.take_expiry());
        w.tick();
        w.tick(); // expires here
        assert_eq!(w.reset_count(), 1);
        assert!(w.take_expiry());
        assert!(!w.take_expiry(), "take_expiry must consume the latch");
        // A kicked watchdog never sets the latch.
        w.kick();
        assert!(!w.tick());
        assert!(!w.take_expiry());
    }
}
