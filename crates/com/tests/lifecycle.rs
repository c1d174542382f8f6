//! Object lifetime: the runtime owns every component it creates, so
//! components that hold interface pointers to each other (a GUI parent and
//! its child sites) are freed when the runtime drops, not leaked as a
//! reference cycle.

use coign_com::idl::InterfaceBuilder;
use coign_com::interface::CallInfo;
use coign_com::registry::ApiImports;
use coign_com::{
    CallCtx, ComError, ComObject, ComResult, ComRuntime, Iid, InterfacePtr, Invoker, Message,
    PType, RuntimeHook, Value,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts drops of the objects that carry it.
#[derive(Default)]
struct Drops(AtomicU64);

impl Drops {
    fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// `INode.Spawn()` creates a child and hands it a pointer back to the
/// parent; `INode.Attach(peer)` stores the peer. After one `Spawn` the
/// parent and child each hold a pointer to the other.
struct Node {
    peers: Mutex<Vec<InterfacePtr>>,
    drops: Arc<Drops>,
}

impl Drop for Node {
    fn drop(&mut self) {
        self.drops.0.fetch_add(1, Ordering::Relaxed);
    }
}

const SPAWN: u32 = 0;
const ATTACH: u32 = 1;

fn inode_iid() -> Iid {
    Iid::from_name("INode")
}

impl ComObject for Node {
    fn invoke(&self, ctx: &CallCtx<'_>, iid: Iid, method: u32, msg: &mut Message) -> ComResult<()> {
        match method {
            SPAWN => {
                let child = ctx.create(ctx.self_clsid(), iid)?;
                let me = ctx.rt().make_ptr(ctx.self_id(), iid)?;
                let mut attach = Message::new(vec![Value::Interface(Some(me))]);
                child.call(ctx.rt(), ATTACH, &mut attach)?;
                self.peers.lock().push(child);
                Ok(())
            }
            ATTACH => {
                let peer = msg.arg(0).and_then(Value::as_interface).cloned();
                self.peers.lock().extend(peer);
                Ok(())
            }
            _ => Err(ComError::App(format!("INode has no method {method}"))),
        }
    }
}

fn runtime(drops: &Arc<Drops>) -> (ComRuntime, InterfacePtr) {
    let rt = ComRuntime::single_machine();
    let iface = InterfaceBuilder::new("INode")
        .method("Spawn", |m| m)
        .method("Attach", |m| m.input("peer", PType::Interface(inode_iid())))
        .build();
    let drops = drops.clone();
    let clsid = rt
        .registry()
        .register("Node", vec![iface], ApiImports::NONE, move |_, _| {
            Arc::new(Node {
                peers: Mutex::new(Vec::new()),
                drops: drops.clone(),
            })
        });
    let root = rt.create_instance(clsid, inode_iid()).unwrap();
    (rt, root)
}

/// Forwards every call, as an instrumentation informer does.
struct Forward {
    inner: InterfacePtr,
}

impl Invoker for Forward {
    fn invoke(&self, rt: &ComRuntime, call: CallInfo<'_>, msg: &mut Message) -> ComResult<()> {
        self.inner.call(rt, call.method, msg)
    }
}

struct WrapAll;

impl RuntimeHook for WrapAll {
    fn wrap_interface(&self, _rt: &ComRuntime, ptr: InterfacePtr) -> InterfacePtr {
        ptr.wrap(Arc::new(Forward { inner: ptr.clone() }))
    }
}

#[test]
fn parent_child_cycle_is_freed_when_the_runtime_drops() {
    let drops = Arc::new(Drops::default());
    let (rt, root) = runtime(&drops);
    root.call(&rt, SPAWN, &mut Message::empty()).unwrap();
    assert_eq!(rt.instance_count(), 2);
    drop(root);
    assert_eq!(drops.count(), 0, "the runtime still owns both objects");
    drop(rt);
    assert_eq!(drops.count(), 2, "parent and child both dropped");
}

#[test]
fn wrapped_cycle_is_freed_when_the_runtime_drops() {
    let drops = Arc::new(Drops::default());
    let (rt, root) = runtime(&drops);
    rt.add_hook(Arc::new(WrapAll));
    root.call(&rt, SPAWN, &mut Message::empty()).unwrap();
    drop((root, rt));
    assert_eq!(drops.count(), 2);
}

#[test]
fn released_instance_dispatches_until_the_runtime_drops() {
    let drops = Arc::new(Drops::default());
    let (rt, root) = runtime(&drops);
    root.call(&rt, SPAWN, &mut Message::empty()).unwrap();
    rt.release_instance(root.owner()).unwrap();
    let mut detach = Message::new(vec![Value::Interface(None)]);
    root.call(&rt, ATTACH, &mut detach).unwrap();
    assert_eq!(drops.count(), 0);
    drop(rt);
    assert_eq!(drops.count(), 2);
    // Once the runtime is gone, a surviving pointer fails instead of
    // reaching a freed object.
    let other = ComRuntime::single_machine();
    let err = root.call(&other, ATTACH, &mut detach).unwrap_err();
    assert!(matches!(err, ComError::DeadInstance(_)));
}
