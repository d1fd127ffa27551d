//! Leveled logging routed through a process-wide sink.
//!
//! Replaces the suite's ad-hoc `eprintln!` calls. The default sink is
//! stderr and messages are emitted verbatim (no prefix, no timestamp), so
//! swapping an `eprintln!` for [`info!`](crate::info!) or
//! [`warn!`](crate::warn!) changes nothing the user sees — but the message
//! now respects the level filter, can be redirected with [`set_sink`], and
//! is tallied in the `log.<level>` counters whenever metric recording is
//! enabled.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::lock;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or user-facing errors.
    Error = 0,
    /// Suspicious conditions the run survives.
    Warn = 1,
    /// Progress and lifecycle messages (the default threshold).
    Info = 2,
    /// Verbose diagnostics, off by default.
    Debug = 3,
}

impl Level {
    fn counter_name(self) -> &'static str {
        match self {
            Level::Error => "log.error",
            Level::Warn => "log.warn",
            Level::Info => "log.info",
            Level::Debug => "log.debug",
        }
    }
}

/// Minimum severity that is emitted (stored as the `Level` discriminant).
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Replacement sink; `None` means stderr.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Sets the minimum level that is emitted (default [`Level::Info`]).
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Redirects log output; `None` restores the stderr default. Returns the
/// previous replacement sink, if any.
pub fn set_sink(sink: Option<Box<dyn Write + Send>>) -> Option<Box<dyn Write + Send>> {
    std::mem::replace(&mut *lock(&SINK), sink)
}

/// Emits one message at `level`. Use the [`error!`](crate::error!),
/// [`warn!`](crate::warn!), [`info!`](crate::info!) and
/// [`debug!`](crate::debug!) macros instead of calling this directly.
pub fn log(level: Level, args: fmt::Arguments<'_>) {
    if (level as u8) > MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    crate::global().counter(level.counter_name()).inc();
    let mut sink = lock(&SINK);
    match sink.as_mut() {
        Some(writer) => {
            let _ = writeln!(writer, "{args}");
            let _ = writer.flush();
        }
        None => {
            let _ = writeln!(std::io::stderr(), "{args}");
        }
    }
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Error, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Warn, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Info, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::Level::Debug, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Serialises the tests that swap the process-wide sink.
    static SINK_TESTS: Mutex<()> = Mutex::new(());

    /// A sink that appends into a shared buffer.
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink whose `write` panics on one marked message (other threads'
    /// messages pass through), with the sink lock held.
    struct Exploding;

    impl Write for Exploding {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            assert!(!buf.starts_with(b"boom"), "sink failure");
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn messages_respect_the_level_filter_and_sink() {
        let _serial = lock(&SINK_TESTS);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let previous = set_sink(Some(Box::new(Capture(buffer.clone()))));
        crate::info!("visible {}", 42);
        crate::debug!("invisible");
        set_min_level(Level::Debug);
        crate::debug!("now visible");
        set_min_level(Level::Info);
        set_sink(previous);

        let text = String::from_utf8(lock(&buffer).clone()).unwrap();
        assert!(text.contains("visible 42"));
        assert!(!text.contains("invisible\n"));
        assert!(text.contains("now visible"));
    }

    #[test]
    fn a_sink_that_panics_does_not_wedge_logging() {
        let _serial = lock(&SINK_TESTS);
        let previous = set_sink(Some(Box::new(Exploding)));
        let unwound = std::panic::catch_unwind(|| crate::info!("boom"));
        assert!(unwound.is_err(), "the sink's panic unwinds out of info!");

        // The panic unwound with the sink lock held; the next message must
        // still get through.
        let buffer = Arc::new(Mutex::new(Vec::new()));
        set_sink(Some(Box::new(Capture(buffer.clone()))));
        crate::info!("still logging");
        set_sink(previous);

        let text = String::from_utf8(lock(&buffer).clone()).unwrap();
        assert!(text.contains("still logging"));
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }
}
