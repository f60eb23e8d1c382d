//! Computational activities (§5.2).
//!
//! "These basic actions can be composed in sequence or in parallel. If
//! composed in parallel, the parallel activities can be dependent (the
//! activity is forked and must subsequently join at a synchronisation
//! point) or independent (the activity is spawned and cannot join)."
//!
//! [`execute`] interprets an [`Activity`] with a deterministic round-robin
//! scheduler, producing a totally ordered trace of basic actions that
//! tests (and the engineering runtime) can check ordering properties
//! against.

use std::collections::VecDeque;
use std::fmt;

/// The basic actions possible within a computational object (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BasicAction {
    /// Creating an object from a template.
    CreateObject(String),
    /// Destroying an object.
    DestroyObject(String),
    /// Creating an interface on an object.
    CreateInterface(String),
    /// Destroying an interface.
    DestroyInterface(String),
    /// Trading for an interface (importing via the trader, §8.3.2).
    Trade(String),
    /// Binding to an interface.
    Bind(String, String),
    /// Reading the object's state.
    ReadState(String),
    /// Writing the object's state.
    WriteState(String),
    /// Invoking an operation at an operational interface.
    Invoke {
        /// The target interface.
        interface: String,
        /// The operation name.
        operation: String,
    },
    /// Producing a flow at a stream interface.
    Produce {
        /// The stream interface.
        interface: String,
        /// The flow name.
        flow: String,
    },
    /// Consuming a flow at a stream interface.
    Consume {
        /// The stream interface.
        interface: String,
        /// The flow name.
        flow: String,
    },
    /// Initiating a signal at a signal interface.
    InitiateSignal {
        /// The signal interface.
        interface: String,
        /// The signal name.
        signal: String,
    },
    /// Responding to a signal at a signal interface.
    RespondSignal {
        /// The signal interface.
        interface: String,
        /// The signal name.
        signal: String,
    },
}

impl fmt::Display for BasicAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasicAction::CreateObject(x) => write!(f, "create-object {x}"),
            BasicAction::DestroyObject(x) => write!(f, "destroy-object {x}"),
            BasicAction::CreateInterface(x) => write!(f, "create-interface {x}"),
            BasicAction::DestroyInterface(x) => write!(f, "destroy-interface {x}"),
            BasicAction::Trade(x) => write!(f, "trade {x}"),
            BasicAction::Bind(a, b) => write!(f, "bind {a} {b}"),
            BasicAction::ReadState(x) => write!(f, "read {x}"),
            BasicAction::WriteState(x) => write!(f, "write {x}"),
            BasicAction::Invoke {
                interface,
                operation,
            } => {
                write!(f, "invoke {interface}.{operation}")
            }
            BasicAction::Produce { interface, flow } => write!(f, "produce {interface}.{flow}"),
            BasicAction::Consume { interface, flow } => write!(f, "consume {interface}.{flow}"),
            BasicAction::InitiateSignal { interface, signal } => {
                write!(f, "signal! {interface}.{signal}")
            }
            BasicAction::RespondSignal { interface, signal } => {
                write!(f, "signal? {interface}.{signal}")
            }
        }
    }
}

/// A composed activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Activity {
    /// One basic action.
    Action(BasicAction),
    /// Sequential composition.
    Seq(Vec<Activity>),
    /// Dependent parallelism: branches run in parallel and **join** before
    /// the following activity continues.
    Fork(Vec<Activity>),
    /// Independent parallelism: the spawned activity runs in parallel and
    /// **cannot join**; the spawner continues immediately.
    Spawn(Box<Activity>),
}

impl Activity {
    /// Shorthand for an `Invoke` action.
    pub fn invoke(interface: impl Into<String>, operation: impl Into<String>) -> Activity {
        Activity::Action(BasicAction::Invoke {
            interface: interface.into(),
            operation: operation.into(),
        })
    }
}

/// Identifies one thread of control in an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

/// One executed basic action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityEvent {
    /// Global step number (total order).
    pub step: usize,
    /// Which thread performed the action.
    pub thread: ThreadId,
    /// The action.
    pub action: BasicAction,
}

/// The result of executing an activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// The totally ordered events.
    pub events: Vec<ActivityEvent>,
    /// How many threads of control existed in total (including the root).
    pub threads: usize,
    /// The step at which the *root* thread completed. Spawned activities
    /// may produce events after this point — that is the observable
    /// difference between fork and spawn.
    pub root_completed_at: usize,
}

#[derive(Debug)]
struct Frame {
    items: Vec<Activity>,
    idx: usize,
}

#[derive(Debug)]
struct Thread {
    frames: Vec<Frame>,
    parent: Option<usize>,
    waiting_children: usize,
    finished: bool,
}

enum StepOutcome {
    Progress(BasicAction),
    Parked,
    Finished,
}

/// Executes an activity deterministically (round-robin over runnable
/// threads) and returns the trace.
pub fn execute(activity: &Activity) -> ExecutionTrace {
    let mut threads = vec![Thread {
        frames: vec![Frame {
            items: vec![activity.clone()],
            idx: 0,
        }],
        parent: None,
        waiting_children: 0,
        finished: false,
    }];
    let mut ready: VecDeque<usize> = VecDeque::from([0]);
    let mut events = Vec::new();
    let mut step = 0usize;
    let mut root_completed_at = 0usize;

    while let Some(tid) = ready.pop_front() {
        if threads[tid].finished {
            continue;
        }
        match step_thread(&mut threads, tid, &mut ready) {
            StepOutcome::Progress(action) => {
                events.push(ActivityEvent {
                    step,
                    thread: ThreadId(tid),
                    action,
                });
                step += 1;
                ready.push_back(tid);
            }
            StepOutcome::Parked => {}
            StepOutcome::Finished => {
                if tid == 0 {
                    root_completed_at = step;
                }
                finish_thread(&mut threads, tid, &mut ready, &mut root_completed_at, step);
            }
        }
    }

    let thread_count = threads.len();
    ExecutionTrace {
        events,
        threads: thread_count,
        root_completed_at,
    }
}

fn finish_thread(
    threads: &mut [Thread],
    tid: usize,
    ready: &mut VecDeque<usize>,
    root_completed_at: &mut usize,
    step: usize,
) {
    threads[tid].finished = true;
    if let Some(parent) = threads[tid].parent {
        threads[parent].waiting_children -= 1;
        if threads[parent].waiting_children == 0 {
            // The join point: the parent resumes.
            if parent == 0 && threads[parent].frames.is_empty() {
                *root_completed_at = step;
            }
            ready.push_back(parent);
        }
    }
}

fn step_thread(threads: &mut Vec<Thread>, tid: usize, ready: &mut VecDeque<usize>) -> StepOutcome {
    loop {
        let Some(frame) = threads[tid].frames.last_mut() else {
            return StepOutcome::Finished;
        };
        if frame.idx >= frame.items.len() {
            threads[tid].frames.pop();
            continue;
        }
        let current = frame.items[frame.idx].clone();
        frame.idx += 1;
        match current {
            Activity::Action(action) => return StepOutcome::Progress(action),
            Activity::Seq(items) => {
                threads[tid].frames.push(Frame { items, idx: 0 });
            }
            Activity::Fork(branches) => {
                if branches.is_empty() {
                    continue;
                }
                let n = branches.len();
                for branch in branches {
                    let child = Thread {
                        frames: vec![Frame {
                            items: vec![branch],
                            idx: 0,
                        }],
                        parent: Some(tid),
                        waiting_children: 0,
                        finished: false,
                    };
                    threads.push(child);
                    ready.push_back(threads.len() - 1);
                }
                threads[tid].waiting_children = n;
                return StepOutcome::Parked;
            }
            Activity::Spawn(inner) => {
                let child = Thread {
                    frames: vec![Frame {
                        items: vec![*inner],
                        idx: 0,
                    }],
                    parent: None,
                    waiting_children: 0,
                    finished: false,
                };
                threads.push(child);
                ready.push_back(threads.len() - 1);
                // The spawner continues without waiting.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(name: &str) -> Activity {
        Activity::Action(BasicAction::WriteState(name.to_owned()))
    }

    fn names(trace: &ExecutionTrace) -> Vec<String> {
        trace
            .events
            .iter()
            .map(|e| match &e.action {
                BasicAction::WriteState(n) => n.clone(),
                other => other.to_string(),
            })
            .collect()
    }

    #[test]
    fn sequence_preserves_order() {
        let a = Activity::Seq(vec![act("a"), act("b"), act("c")]);
        let t = execute(&a);
        assert_eq!(names(&t), ["a", "b", "c"]);
        assert_eq!(t.threads, 1);
        assert_eq!(t.root_completed_at, 3);
    }

    #[test]
    fn fork_interleaves_and_joins() {
        let a = Activity::Seq(vec![
            act("before"),
            Activity::Fork(vec![
                Activity::Seq(vec![act("l1"), act("l2")]),
                Activity::Seq(vec![act("r1"), act("r2")]),
            ]),
            act("after"),
        ]);
        let t = execute(&a);
        let ns = names(&t);
        assert_eq!(ns.len(), 6);
        assert_eq!(ns[0], "before");
        // Round-robin interleaving of the two branches.
        assert_eq!(&ns[1..5], ["l1", "r1", "l2", "r2"]);
        // The join: "after" comes only after both branches completed.
        assert_eq!(ns[5], "after");
        assert_eq!(t.threads, 3);
    }

    #[test]
    fn nested_forks_join_inside_out() {
        let a = Activity::Seq(vec![
            Activity::Fork(vec![
                Activity::Seq(vec![
                    Activity::Fork(vec![act("inner1"), act("inner2")]),
                    act("after-inner"),
                ]),
                act("sibling"),
            ]),
            act("after-outer"),
        ]);
        let t = execute(&a);
        let ns = names(&t);
        let pos = |n: &str| ns.iter().position(|x| x == n).unwrap();
        assert!(pos("inner1") < pos("after-inner"));
        assert!(pos("inner2") < pos("after-inner"));
        assert!(pos("after-inner") < pos("after-outer"));
        assert!(pos("sibling") < pos("after-outer"));
        assert_eq!(ns.len(), 5);
        assert_eq!(t.threads, 5);
    }

    #[test]
    fn spawn_does_not_block_the_spawner() {
        let a = Activity::Seq(vec![
            Activity::Spawn(Box::new(Activity::Seq(vec![act("s1"), act("s2")]))),
            act("main"),
        ]);
        let t = execute(&a);
        let ns = names(&t);
        assert_eq!(ns.len(), 3);
        // The root finishes after "main" even though spawned work remains.
        let main_step = t
            .events
            .iter()
            .find(|e| matches!(&e.action, BasicAction::WriteState(n) if n == "main"))
            .unwrap()
            .step;
        assert!(t.root_completed_at > main_step);
        let s2_step = t
            .events
            .iter()
            .find(|e| matches!(&e.action, BasicAction::WriteState(n) if n == "s2"))
            .unwrap()
            .step;
        assert!(
            s2_step >= t.root_completed_at,
            "spawned activity keeps running after the root completes"
        );
    }

    #[test]
    fn empty_fork_is_a_no_op() {
        let a = Activity::Seq(vec![act("x"), Activity::Fork(vec![]), act("y")]);
        let t = execute(&a);
        assert_eq!(names(&t), ["x", "y"]);
        assert_eq!(t.threads, 1);
    }

    #[test]
    fn every_action_appears_exactly_once() {
        let a = Activity::Seq(vec![
            Activity::Fork(vec![act("a"), act("b"), act("c")]),
            Activity::Spawn(Box::new(act("d"))),
            act("e"),
        ]);
        let t = execute(&a);
        assert_eq!(t.events.len(), 5);
        let mut ns = names(&t);
        ns.sort();
        assert_eq!(ns, ["a", "b", "c", "d", "e"]);
        // Steps form a contiguous total order.
        for (i, e) in t.events.iter().enumerate() {
            assert_eq!(e.step, i);
        }
    }

    #[test]
    fn basic_actions_display() {
        assert_eq!(
            BasicAction::Invoke {
                interface: "t".into(),
                operation: "Op".into()
            }
            .to_string(),
            "invoke t.Op"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Activity::Seq(vec![
            Activity::Fork(vec![
                Activity::Seq(vec![act("a1"), act("a2"), act("a3")]),
                Activity::Seq(vec![act("b1"), act("b2")]),
                Activity::Spawn(Box::new(act("c1"))),
            ]),
            act("tail"),
        ]);
        assert_eq!(execute(&a), execute(&a));
    }
}
