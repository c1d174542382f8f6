//! The interception hot path allocates nothing per call.
//!
//! Coign's premise is that interposing on every interface call is cheap.
//! This test binary counts heap allocations on the calling thread and pins
//! zero per call, once caches and tables are warm, for: a plain dispatch
//! through a hooked runtime, a profiling-informer call whose marshal sizes
//! hit the memo cache, and a distribution-informer call that stays on one
//! machine.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::factory::ComponentFactory;
use coign::logger::{NullLogger, ProfilingLogger};
use coign::rte::CoignRte;
use coign_com::idl::InterfaceBuilder;
use coign_com::registry::ApiImports;
use coign_com::{
    CallCtx, ComObject, ComResult, ComRuntime, Iid, InterfacePtr, MachineId, Message, PType,
    RuntimeHook, Value,
};
use coign_dcom::{NetworkModel, Transport};
use std::collections::HashMap;
use std::sync::Arc;

#[path = "support/counting.rs"]
mod counting;
use counting::allocs_during;

/// `IRelay.Pass(data) -> out`: the outer instance relays to an inner one,
/// so the inner call runs with a caller on the stack; the innermost
/// instance echoes a blob twice the size.
struct Relay {
    next: Option<InterfacePtr>,
}

impl ComObject for Relay {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        ctx.compute(3);
        match &self.next {
            Some(next) => next.call(ctx.rt(), method, msg),
            None => {
                let n = msg.arg(0).and_then(Value::as_blob).unwrap_or(0);
                msg.set(1, Value::Blob(n * 2));
                Ok(())
            }
        }
    }
}

/// Registers the relay class and returns a two-deep relay chain, created
/// through whatever hook `rt` carries.
fn relay_chain(rt: &ComRuntime, hook: Option<Arc<dyn RuntimeHook>>) -> InterfacePtr {
    let iface = InterfaceBuilder::new("IRelay")
        .method("Pass", |m| {
            m.input("data", PType::Blob).output("out", PType::Blob)
        })
        .build();
    let iid = iface.iid;
    let leaf = rt
        .registry()
        .register("Leaf", vec![iface.clone()], ApiImports::NONE, |_, _| {
            Arc::new(Relay { next: None })
        });
    if let Some(hook) = hook {
        rt.add_hook(hook);
    }
    let inner = rt.create_instance(leaf, iid).unwrap();
    let outer = rt
        .registry()
        .register("Outer", vec![iface], ApiImports::NONE, move |_, _| {
            Arc::new(Relay {
                next: Some(inner.clone()),
            })
        });
    rt.create_instance(outer, iid).unwrap()
}

/// Warms `ptr` up with one call, then returns the allocations of the next
/// hundred calls with the same pre-built message.
fn steady_state_allocs(rt: &ComRuntime, ptr: &InterfacePtr) -> u64 {
    let mut msg = Message::new(vec![Value::Blob(512), Value::Null]);
    ptr.call(rt, 0, &mut msg).unwrap();
    allocs_during(|| {
        for _ in 0..100 {
            ptr.call(rt, 0, &mut msg).unwrap();
        }
    })
}

/// A hook that wraps nothing: dispatch still consults the hook chain.
struct Passive;

impl RuntimeHook for Passive {}

#[test]
fn direct_dispatch_through_a_hooked_runtime_allocates_nothing() {
    let rt = ComRuntime::single_machine();
    let ptr = relay_chain(&rt, Some(Arc::new(Passive)));
    assert_eq!(steady_state_allocs(&rt, &ptr), 0);
    assert_eq!(rt.stats().calls, 202);
}

#[test]
fn profiling_informer_cache_hit_allocates_nothing() {
    let rt = ComRuntime::single_machine();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let logger = Arc::new(ProfilingLogger::new());
    let rte = Arc::new(CoignRte::profiling(classifier, logger.clone()));
    let ptr = relay_chain(&rt, Some(rte.clone()));
    assert_eq!(steady_state_allocs(&rt, &ptr), 0);
    let cache = rte.marshal_cache();
    // 202 calls: one request and one reply shape, each walked once.
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 402);
    assert_eq!(logger.snapshot_profile().total_messages(), 404);
}

#[test]
fn local_distribution_informer_call_allocates_nothing() {
    let rt = ComRuntime::client_server();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let factory = ComponentFactory::new(HashMap::new(), MachineId::CLIENT, 2);
    let transport = Arc::new(Transport::new(NetworkModel::ethernet_10baset(), 1));
    let rte = Arc::new(CoignRte::distributed(
        classifier,
        Arc::new(NullLogger),
        factory,
        transport,
        None,
    ));
    let ptr = relay_chain(&rt, Some(rte.clone()));
    assert_eq!(steady_state_allocs(&rt, &ptr), 0);
    assert_eq!(rt.stats().calls, 202);
    assert_eq!(rt.stats().cross_machine_calls, 0);
    assert_eq!(rte.overhead_us(), 202);
}
