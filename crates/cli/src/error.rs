//! The CLI's typed error: every user-reachable failure funnels through
//! [`CliError`] instead of scattered `unwrap_or_else(... exit)` sites,
//! so exit codes are stable and the untrusted-input paths are
//! panic-free by construction.
//!
//! Exit-code contract (documented in `docs/FRONTEND.md`):
//!
//! | exit | variant | meaning |
//! |---|---|---|
//! | 0 | — | success |
//! | 1 | [`CliError::Failed`], [`CliError::Diagnostics`] | the artifact is wrong: diagnostics remain or a pipeline stage failed |
//! | 2 | [`CliError::Usage`] | bad flags, unreadable files, malformed numeric arguments |

/// A fatal CLI error, carried up to `main` for rendering and exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The invocation is wrong: unknown flag values, malformed numeric
    /// arguments, unreadable input files. Exit 2.
    Usage(String),
    /// The invocation is fine but the work failed: an illegal Π, a
    /// pipeline stage error, an unwritable output file. Exit 1.
    Failed(String),
    /// Error-severity diagnostics were already rendered through a
    /// `loom_check::Report` (human/JSON/SARIF on stdout); nothing more
    /// to print. Exit 1.
    Diagnostics,
}

impl CliError {
    /// Shorthand for a [`CliError::Usage`].
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    /// Shorthand for a [`CliError::Failed`].
    pub fn failed(msg: impl Into<String>) -> CliError {
        CliError::Failed(msg.into())
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) | CliError::Diagnostics => 1,
        }
    }

    /// Print the error to stderr (no-op for already-rendered
    /// diagnostics).
    pub fn render(&self) {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => eprintln!("{msg}"),
            CliError::Diagnostics => {}
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
            CliError::Diagnostics => write!(f, "diagnostics reported"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<loom_core::PipelineError> for CliError {
    /// A pipeline stage failed on a well-formed invocation. Exit 1.
    fn from(e: loom_core::PipelineError) -> CliError {
        CliError::failed(format!("pipeline failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(CliError::usage("bad flag").exit_code(), 2);
        assert_eq!(CliError::failed("stage died").exit_code(), 1);
        assert_eq!(CliError::Diagnostics.exit_code(), 1);
    }

    #[test]
    fn display_renders_message() {
        assert_eq!(
            CliError::usage("--size expects an integer").to_string(),
            "usage error: --size expects an integer"
        );
        assert_eq!(CliError::failed("boom").to_string(), "boom");
    }
}
