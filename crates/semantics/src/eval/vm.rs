//! The bytecode execution engine: a flat dispatch loop over a
//! [`CodeUnit`]'s instruction stream.
//!
//! This is the fast driver behind [`Interp::run_main`]; the tree-walker
//! in the parent module is the reference semantics. Both share the
//! memory/object core (`read_typed`, `write_typed`, `apply_binop`,
//! lifetimes, conversions), which is what keeps every diagnostic —
//! kind, position, detail string, note — byte-identical between them.
//! Fast-path ops (`LoadSlotFast`, fused stores) guard on the exact
//! object state their shortcut assumes and fail over to the generic
//! core *before* any observable action; tree-fallback ops (`EvalFull`,
//! `DeclFull`) hand whole expressions and declarations back to the
//! walker. Every statement runs here.

use super::*;
use crate::bytecode::{FusedSweep, Op, Pc, SweepSrc};

impl<'a> Interp<'a> {
    /// Execute one function body from its op range; the shared
    /// prologue/epilogue in [`Interp::call`] has already run. `Ok(Some)`
    /// carries an executed `return`'s value and position; `Ok(None)` is
    /// falling off the closing `}`.
    pub(super) fn run_ops(
        &mut self,
        code: &CodeUnit,
        func_idx: u32,
    ) -> EResult<Option<(Value, SourceLoc)>> {
        let vbase = self.vstack.len();
        let sbase = self.scope_marks.len();
        // Monomorphized dispatch: the profiling build is a separate
        // function body, so with `--profile` off no counter code exists
        // on the hot path at all.
        let r = if self.profile_enabled {
            self.dispatch::<true>(code, func_idx)
        } else {
            self.dispatch::<false>(code, func_idx)
        };
        // On any exit — return, fall-off, or error unwind — the operand
        // stack and open scope marks roll back to the caller's; objects
        // still alive in abandoned scopes are killed by `call`'s
        // frame-level cleanup, exactly as the tree-walker's unwind does.
        self.vstack.truncate(vbase);
        self.scope_marks.truncate(sbase);
        r
    }

    fn dispatch<const PROFILE: bool>(
        &mut self,
        code: &CodeUnit,
        func_idx: u32,
    ) -> EResult<Option<(Value, SourceLoc)>> {
        let unit = self.unit;
        let fc = &code.funcs[func_idx as usize];
        let end: Pc = fc.end;
        let mut pc: Pc = fc.start;
        // Footprint mark at function entry: between statements the arena
        // is always back at this level, so sequence-point ops truncate
        // to it directly.
        let fp_base = self.fp.len();
        // The frame's slot window is fixed for the whole dispatch, so
        // the cost of `frames.last()` is paid once, not per slot op.
        let slot_base = self.frames.last().expect("active frame").slot_base;
        // Function-entry state, restored when a self-tail call rewinds
        // the body: operand stack, open scopes, and the automatic-object
        // mark above which the incarnation's locals live.
        let v_enter = self.vstack.len();
        let s_enter = self.scope_marks.len();
        let c_enter = self.created.len();
        // Step accounting is batched: each op bumps a register-resident
        // counter which is settled into the interpreter's step total —
        // and the limit checked — at loop back-edges, calls, and tree
        // fallbacks, the only places unbounded work can hide (straight-
        // line op runs are bounded by the code itself).
        let mut ops_since: u64 = 0;
        let ops: &[Op] = &code.ops;
        let locs: &[SourceLoc] = &code.locs;
        macro_rules! settle {
            ($loc:expr) => {
                self.steps += ops_since;
                #[allow(unused_assignments)]
                {
                    ops_since = 0;
                }
                if self.steps > self.limits.max_steps {
                    return Err(stop_unsupported("evaluation step limit exceeded", $loc));
                }
            };
        }
        while pc < end {
            let op = ops[pc as usize];
            let loc = locs[pc as usize];
            ops_since += 1;
            pc += 1;
            if PROFILE {
                self.prof.note_op(op.mnemonic());
            }
            match op {
                Op::Nop => {}
                Op::Const(i) => self.vstack.push(Value::Int(code.pool[i as usize])),
                Op::LoadSlot(slot) => {
                    let v = self.load_slot_any::<PROFILE>(slot_base, slot, loc)?;
                    self.vstack.push(v);
                }
                Op::LoadSlotFast(slot, t) => {
                    let v = self.load_slot_fast::<PROFILE>(slot_base, slot, t, loc)?;
                    self.vstack.push(v);
                }
                Op::Pop => {
                    // A comma's discarded left value: not a sequence
                    // point op in the tree either (no `use_value`).
                    self.vpop();
                }
                Op::PopSeq => {
                    self.vpop();
                    self.fp.truncate(fp_base);
                }
                Op::Unary(op) => {
                    let v = self.vpop();
                    let v = self.use_value(v, loc)?;
                    let out = match (op, v) {
                        (UnaryOp::Neg, Value::Int(n)) => match consteval::neg(n) {
                            Ok(r) => Value::Int(r),
                            Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
                        },
                        (UnaryOp::Not, v) => {
                            let t = self.truthy(v, loc)?;
                            Value::Int(CInt::int(if t { 0 } else { 1 }))
                        }
                        (UnaryOp::BitNot, Value::Int(n)) => match consteval::bit_not(n) {
                            Ok(r) => Value::Int(r),
                            Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
                        },
                        (UnaryOp::Neg | UnaryOp::BitNot, Value::Ptr(_)) => {
                            return Err(stop_unsupported(
                                "arithmetic unary operator applied to a pointer",
                                loc,
                            ))
                        }
                        (_, Value::Missing(_)) => unreachable!(),
                    };
                    self.vstack.push(out);
                }
                Op::Binary(op) => {
                    let rv = self.vpop();
                    let lv = self.vpop();
                    let lv = self.use_value(lv, loc)?;
                    let rv = self.use_value(rv, loc)?;
                    let v = self.apply_binop(op, lv, rv, loc)?;
                    self.vstack.push(v);
                }
                Op::BinaryC(op, ci) => {
                    let lv = self.vpop();
                    let lv = self.use_value(lv, loc)?;
                    let rv = Value::Int(code.pool[ci as usize]);
                    let v = self.apply_binop(op, lv, rv, loc)?;
                    self.vstack.push(v);
                }
                Op::BinSS(i) | Op::BinSC(i) => {
                    let v = self.fused_bin::<PROFILE>(
                        code,
                        slot_base,
                        i,
                        matches!(op, Op::BinSC(_)),
                        loc,
                    )?;
                    self.vstack.push(v);
                }
                Op::BinVS(i) => {
                    let l = self.vpop();
                    let f = code.fused[i as usize];
                    let r = self.load_slot_fast::<PROFILE>(slot_base, f.a_slot, f.a_ty, f.a_loc)?;
                    let v = self.apply_binop(f.op, l, r, loc)?;
                    self.vstack.push(v);
                }
                Op::Bin2SF(j) | Op::Bin2VF(j) => {
                    let f2 = code.fused2[j as usize];
                    let l = if matches!(op, Op::Bin2SF(_)) {
                        self.load_slot_fast::<PROFILE>(slot_base, f2.a_slot, f2.a_ty, f2.a_loc)?
                    } else {
                        self.vpop()
                    };
                    let r = self.fused_bin::<PROFILE>(
                        code,
                        slot_base,
                        f2.inner,
                        f2.inner_const,
                        f2.inner_loc,
                    )?;
                    let v = self.apply_binop(f2.op, l, r, loc)?;
                    self.vstack.push(v);
                }
                Op::Bin2FC(j) => {
                    // `(b ⊕ c) ⊕ k`: the inner pair's result (a computed
                    // value, never missing) meets a pool constant.
                    let f2 = code.fused2[j as usize];
                    let l = self.fused_bin::<PROFILE>(
                        code,
                        slot_base,
                        f2.inner,
                        f2.inner_const,
                        f2.inner_loc,
                    )?;
                    let r = Value::Int(code.pool[f2.a_slot as usize]);
                    let v = self.apply_binop(f2.op, l, r, loc)?;
                    self.vstack.push(v);
                }
                Op::Jump(t) => {
                    if t < pc {
                        // Loop back-edge (or backward goto): the one place
                        // a pure-op program can run forever.
                        settle!(loc);
                    }
                    pc = t;
                }
                Op::Switch(i) => {
                    let v = self.vpop();
                    self.fp.truncate(fp_base);
                    let ctrl = self.as_int(v, loc)?.promoted();
                    let sw = &code.switches[i as usize];
                    pc = match self.switch_target(&unit.switches[i as usize], ctrl)? {
                        Some(item) => sw.entries[item],
                        None => sw.skip,
                    };
                }
                Op::BranchFalse(t) => {
                    let v = self.vpop();
                    if !self.truthy(v, loc)? {
                        pc = t;
                    }
                }
                Op::BranchFalseSeq(t) => {
                    let v = self.vpop();
                    self.fp.truncate(fp_base);
                    if !self.truthy(v, loc)? {
                        pc = t;
                    }
                }
                Op::AndFalse(t) => {
                    let v = self.vpop();
                    if !self.truthy(v, loc)? {
                        self.vstack.push(Value::Int(CInt::int(0)));
                        pc = t;
                    }
                }
                Op::OrTrue(t) => {
                    let v = self.vpop();
                    if self.truthy(v, loc)? {
                        self.vstack.push(Value::Int(CInt::int(1)));
                        pc = t;
                    }
                }
                Op::ToBool01 => {
                    let v = self.vpop();
                    let t = self.truthy(v, loc)?;
                    self.vstack.push(Value::Int(CInt::int(t as i64)));
                }
                Op::BrCmpSS(i, t) | Op::BrCmpSC(i, t) => {
                    let is_const = matches!(op, Op::BrCmpSC(_, _));
                    let v = self.fused_bin::<PROFILE>(code, slot_base, i, is_const, loc)?;
                    self.fp.truncate(fp_base);
                    if !self.truthy(v, loc)? {
                        pc = t;
                    }
                }
                Op::CondCommon(common) => {
                    let v = match self.vpop() {
                        Value::Int(n) => Value::Int(self.convert_int(n, common, loc)),
                        v => v,
                    };
                    self.vstack.push(v);
                }
                Op::AsPtr => {
                    let v = self.vpop();
                    let p = self.as_pointer(v, loc)?;
                    self.vstack.push(Value::Ptr(p));
                }
                Op::ReadThru => {
                    let Value::Ptr(p) = self.vpop() else {
                        unreachable!("ReadThru without AsPtr");
                    };
                    let v = match self.read_word_fast(p) {
                        Some(v) => {
                            if PROFILE {
                                self.prof.word_fast_hits += 1;
                            }
                            v
                        }
                        None => {
                            if PROFILE {
                                self.prof.word_fast_fallbacks += 1;
                            }
                            self.read_typed(p, loc)?
                        }
                    };
                    self.vstack.push(v);
                }
                Op::IndexPlace | Op::IndexRead => {
                    let iv = self.vpop();
                    let Value::Ptr(bp) = self.vpop() else {
                        unreachable!("Index without AsPtr");
                    };
                    let p = match self.index_ptr_fast(bp, &iv) {
                        Some(p) => {
                            if PROFILE {
                                self.prof.word_fast_hits += 1;
                            }
                            p
                        }
                        None => {
                            if PROFILE {
                                self.prof.word_fast_fallbacks += 1;
                            }
                            let i = self.as_int(iv, loc)?.math();
                            self.pointer_add(bp, i, loc)?
                        }
                    };
                    if matches!(op, Op::IndexRead) {
                        let v = match self.read_word_fast(p) {
                            Some(v) => {
                                if PROFILE {
                                    self.prof.word_fast_hits += 1;
                                }
                                v
                            }
                            None => {
                                if PROFILE {
                                    self.prof.word_fast_fallbacks += 1;
                                }
                                self.read_typed(p, loc)?
                            }
                        };
                        self.vstack.push(v);
                    } else {
                        self.vstack.push(Value::Ptr(p));
                    }
                }
                Op::SlotPlace(slot) => {
                    let obj = self.bound_slot(slot_base, slot, loc)?;
                    self.vstack.push(Value::Ptr(self.designator_pointer(obj)));
                }
                Op::BindCheck(slot) => {
                    self.bound_slot(slot_base, slot, loc)?;
                }
                Op::StoreSimple => {
                    let rv = self.vpop();
                    let Value::Ptr(p) = self.vpop() else {
                        unreachable!("store without a place");
                    };
                    let rv = self.use_value(rv, loc)?;
                    let stored = match self.write_word_fast(p, &rv, loc) {
                        Some(s) => {
                            if PROFILE {
                                self.prof.word_fast_hits += 1;
                            }
                            s
                        }
                        None => {
                            if PROFILE {
                                self.prof.word_fast_fallbacks += 1;
                            }
                            self.write_typed(p, rv, loc)?
                        }
                    };
                    self.vstack.push(stored);
                }
                Op::StoreCompound(bop) => {
                    let rv = self.vpop();
                    let Value::Ptr(p) = self.vpop() else {
                        unreachable!("store without a place");
                    };
                    let rv = self.use_value(rv, loc)?;
                    let old = match self.read_word_fast(p) {
                        Some(v) => v,
                        None => {
                            let old = self.read_typed(p, loc)?;
                            self.use_value(old, loc)?
                        }
                    };
                    let stored = self.apply_binop(bop, old, rv, loc)?;
                    let stored = match self.write_word_fast(p, &stored, loc) {
                        Some(s) => {
                            if PROFILE {
                                self.prof.word_fast_hits += 1;
                            }
                            s
                        }
                        None => {
                            if PROFILE {
                                self.prof.word_fast_fallbacks += 1;
                            }
                            self.write_typed(p, stored, loc)?
                        }
                    };
                    self.vstack.push(stored);
                }
                Op::AssignSlot(i) => {
                    let v = self.assign_slot::<PROFILE>(code, slot_base, i, loc)?;
                    self.vstack.push(v);
                }
                Op::AssignSlotPop(i) => {
                    self.assign_slot::<PROFILE>(code, slot_base, i, loc)?;
                    self.fp.truncate(fp_base);
                }
                Op::IncDec(delta, is_post) => {
                    let Value::Ptr(p) = self.vpop() else {
                        unreachable!("IncDec without a place");
                    };
                    let (old, new) = self.incdec_at(p, delta, loc)?;
                    self.vstack.push(if is_post { old } else { new });
                }
                Op::IncDecSlotStmt(i) => {
                    self.incdec_slot::<PROFILE>(code, slot_base, i, loc)?;
                    self.fp.truncate(fp_base);
                }
                Op::CastInt(t) => {
                    let v = self.vpop();
                    match self.use_value(v, loc)? {
                        Value::Int(c) => {
                            let r = self.convert_int(c, t, loc);
                            self.vstack.push(Value::Int(r));
                        }
                        Value::Ptr(_) => {
                            return Err(stop_unsupported(
                                "pointer-to-integer casts are outside the modeled semantics \
                                 (pointers have no numeric address here)",
                                loc,
                            ))
                        }
                        Value::Missing(_) => unreachable!(),
                    }
                }
                Op::CastPtr(pointee) => {
                    let v = self.vpop();
                    match self.use_value(v, loc)? {
                        Value::Int(c) if c.is_zero() => self.vstack.push(Value::Int(CInt::int(0))),
                        Value::Int(_) => {
                            return Err(stop_unsupported(
                                "integer-to-pointer casts are outside the modeled semantics",
                                loc,
                            ))
                        }
                        Value::Ptr(p) => {
                            let q = self.convert_pointer(p, pointee, loc)?;
                            self.vstack.push(Value::Ptr(q));
                        }
                        Value::Missing(_) => unreachable!(),
                    }
                }
                Op::CastVoid => {
                    self.vpop();
                    self.vstack.push(Value::Missing(UbKind::VoidValueUsed));
                }
                Op::SizeofExpr(inner) => {
                    let v = self.sizeof_expr(inner, loc)?;
                    self.vstack.push(v);
                }
                Op::ArgPush => {
                    let v = self.vpop();
                    let v = self.use_value(v, loc)?;
                    self.args.push(v);
                }
                Op::Call(f, argc) => {
                    settle!(loc);
                    let argv_base = self.args.len() - argc as usize;
                    let (ret, _) = self.call(f, argv_base, loc)?;
                    self.vstack.push(ret);
                }
                Op::Malloc => {
                    let v = self.args.pop().expect("Malloc without ArgPush");
                    let ret = self.builtin_malloc(v, loc)?;
                    self.vstack.push(ret);
                }
                Op::Free => {
                    let v = self.args.pop().expect("Free without ArgPush");
                    let ret = self.builtin_free(v, loc)?;
                    self.vstack.push(ret);
                }
                Op::TailSelf(argc) => {
                    settle!(loc);
                    let vals_base = self.vstack.len() - argc as usize;
                    if self.tail_rebind(func_idx, vals_base, loc)? {
                        // Frame reuse: the incarnation's locals die (the
                        // same kills the call epilogue would run), the
                        // operand stack, scopes, and footprint roll back
                        // to function entry, and control restarts at the
                        // body with the parameters rebound.
                        self.kill_created_from(c_enter);
                        self.vstack.truncate(v_enter);
                        self.scope_marks.truncate(s_enter);
                        self.fp.truncate(fp_base);
                        if PROFILE {
                            self.prof.frame_pool_hits += 1;
                        }
                        pc = fc.start;
                    } else {
                        // An argument shape the in-place rebind can't
                        // take verbatim: move the values to the argument
                        // stack, run the general call, and fall through
                        // to the `Ret` that still follows.
                        let argv_base = self.args.len();
                        self.args.extend(self.vstack.drain(vals_base..));
                        let (ret, _) = self.call(func_idx, argv_base, loc)?;
                        self.vstack.push(ret);
                    }
                }
                Op::Ret => {
                    self.steps += ops_since;
                    let v = self.vpop();
                    self.fp.truncate(fp_base);
                    let v = self.use_value(v, loc)?;
                    return Ok(Some((v, loc)));
                }
                Op::RetNone => {
                    self.steps += ops_since;
                    let void = self.frames.last().is_some_and(|f| f.returns_void);
                    let v = Value::Missing(if void {
                        UbKind::VoidValueUsed
                    } else {
                        UbKind::ReturnWithoutValue
                    });
                    return Ok(Some((v, loc)));
                }
                Op::EnterScope => self.scope_marks.push(self.created.len()),
                Op::ExitScope => {
                    let base = self.scope_marks.pop().expect("scope underflow");
                    self.kill_created_from(base);
                }
                Op::ScopePopN(n) => self.pop_scopes(n),
                Op::ScopePushN(n) => {
                    for _ in 0..n {
                        self.scope_marks.push(self.created.len());
                    }
                }
                Op::DeclAlloc(sid) | Op::DeclSimple(sid) => {
                    let Stmt::Decl(d) = unit.stmt(sid) else {
                        unreachable!("decl op on a non-decl statement");
                    };
                    self.decl_alloc(d, slot_base);
                    if matches!(op, Op::DeclSimple(_)) {
                        self.decl_finish(d, slot_base);
                    }
                }
                Op::DeclInit(sid) => {
                    let Stmt::Decl(d) = unit.stmt(sid) else {
                        unreachable!("decl op on a non-decl statement");
                    };
                    let v = self.vpop();
                    self.decl_init::<PROFILE>(d, slot_base, v, loc)?;
                    self.decl_finish(d, slot_base);
                    self.fp.truncate(fp_base);
                }
                Op::DeclFull(sid) => {
                    settle!(loc);
                    let Stmt::Decl(d) = unit.stmt(sid) else {
                        unreachable!("decl op on a non-decl statement");
                    };
                    self.exec_decl(d)?;
                }
                Op::EvalFull(e) => {
                    settle!(loc);
                    let v = self.eval_full(e)?;
                    self.vstack.push(v);
                }
                Op::EvalFullPop(e) => {
                    settle!(loc);
                    self.eval_full(e)?;
                }
                Op::ByteSweep(i) => {
                    // Step-neutral: cancel this dispatch's own tick;
                    // a successful sweep charges exactly the ops the
                    // generic loop would have settled, a fallback lets
                    // the generic ops (which follow immediately) count
                    // themselves.
                    ops_since -= 1;
                    if let Some(t) = self.byte_sweep::<PROFILE>(code, i, slot_base, &mut ops_since)
                    {
                        // The loop's condition is a sequence boundary;
                        // leave the arena as its last test would have.
                        self.fp.truncate(fp_base);
                        pc = t;
                    }
                }
                Op::FailUnsupported(m) => {
                    return Err(stop_unsupported(code.fails[m as usize].clone(), loc))
                }
                Op::FailUb(i) => return Err(Box::new(Stop::Ub(code.ubs[i as usize].clone()))),
            }
        }
        self.steps += ops_since;
        Ok(None)
    }
}

/// Shared helpers for the dispatch loop: slot access, fused operators,
/// and the fast/generic store pair. Every fast path is guarded by the
/// exact object state it assumes and falls back to the same shared core
/// the tree-walker uses, so no diagnostic can differ.
impl<'a> Interp<'a> {
    #[inline]
    fn vpop(&mut self) -> Value {
        self.vstack.pop().expect("operand stack underflow")
    }

    /// Try to rebind the current frame in place for a self-tail call
    /// whose argument values sit at `vstack[vals_base..]`. Returns
    /// `true` on success (the caller then rewinds to the function
    /// entry); `false` when an argument needs the general typed store,
    /// in which case nothing has been touched and the ordinary call
    /// runs instead.
    ///
    /// The logical call still happens: the depth limit fires with the
    /// tree-walker's exact message and position, each parameter takes
    /// the same converted store (§6.5.2.2:7) the call prologue performs
    /// on a fresh object, and the allocation-order serial advances as if
    /// the parameters had been allocated anew, so heap object naming
    /// stays in lockstep between engines.
    fn tail_rebind(&mut self, func_idx: u32, vals_base: usize, loc: SourceLoc) -> EResult<bool> {
        if self.frames.len() + self.tail_depth >= self.limits.max_call_depth {
            return Err(stop_unsupported("call depth limit exceeded", loc));
        }
        let nparams = self.frame_plans[func_idx as usize].params.len();
        debug_assert_eq!(self.vstack.len() - vals_base, nparams);
        // Check every argument before storing any: the rebind is
        // all-or-nothing so the fallback call sees untouched state.
        for i in 0..nparams {
            let pp = &self.frame_plans[func_idx as usize].params[i];
            if pp.scalar_fast.is_none() || !matches!(self.vstack[vals_base + i], Value::Int(_)) {
                return Ok(false);
            }
        }
        let slot_base = self.frames.last().expect("active frame").slot_base;
        for i in 0..nparams {
            let pp = self.frame_plans[func_idx as usize].params[i];
            let (Some(t), Value::Int(c)) = (pp.scalar_fast, self.vstack[vals_base + i]) else {
                unreachable!("checked above")
            };
            let stored = self.convert_int(c, t, loc);
            let slot = obj_slot(self.slots[slot_base + i]);
            let obj = &mut self.objects[slot];
            debug_assert!(obj.alive, "parameter object died mid-frame");
            obj.bytes.store(0, pp.size as usize, stored.bits());
            obj.ptr_slots.clear();
        }
        // Logically these are fresh parameter objects: allocation order
        // (and with it `heap object #N` naming) advances identically.
        self.alloc_count += nparams as u64;
        self.tail_depth += 1;
        self.frames.last_mut().expect("active frame").tail_calls += 1;
        Ok(true)
    }

    /// Pop `n` open scopes, ending the lifetimes they own (a `goto` or
    /// `continue` leaving nested blocks).
    fn pop_scopes(&mut self, n: u32) {
        for _ in 0..n {
            let base = self.scope_marks.pop().expect("scope underflow");
            self.kill_created_from(base);
        }
    }

    /// Object bound to a frame slot, or the tree-walker's exact
    /// "declaration not executed" stop.
    #[inline]
    fn bound_slot(&mut self, slot_base: usize, slot: u32, loc: SourceLoc) -> EResult<usize> {
        match self.slots[slot_base + slot as usize] {
            obj if obj != SLOT_NONE => Ok(obj),
            _ => Err(stop_unsupported(
                format!(
                    "use of `{}` before its declaration executed",
                    self.slot_name(slot)
                ),
                loc,
            )),
        }
    }

    /// The executing function's spelling of `slot`, from the resolver's
    /// slot table.
    #[cold]
    fn slot_name(&self, slot: u32) -> &'a str {
        let unit = self.unit;
        let func = &unit.functions[self.frames.last().expect("active frame").func as usize];
        unit.interner.resolve(func.slots[slot as usize].name)
    }

    /// Generic slot load: array designators decay to pointers, scalars
    /// read through the typed core (uninitialized reads and `_Bool`
    /// traps report exactly as in the tree).
    fn load_slot_generic(&mut self, slot_base: usize, slot: u32, loc: SourceLoc) -> EResult<Value> {
        let obj = self.bound_slot(slot_base, slot, loc)?;
        if self.obj_is_array(obj) {
            return Ok(Value::Ptr(self.designator_pointer(obj)));
        }
        let p = self.designator_pointer(obj);
        self.read_typed(p, loc)
    }

    /// Fast slot load for a scalar-declared non-`_Bool` slot: one init
    /// check over the whole word, one raw load. The guards reproduce
    /// everything `read_typed` would check for this statically-known
    /// shape (alive, fully sized, fully initialized); any other state
    /// falls back to the generic path for the byte-precise diagnostic.
    #[inline]
    fn load_slot_fast<const PROFILE: bool>(
        &mut self,
        slot_base: usize,
        slot: u32,
        t: IntTy,
        loc: SourceLoc,
    ) -> EResult<Value> {
        let obj = self.slots[slot_base + slot as usize];
        if obj != SLOT_NONE {
            // `resolved` filters stale refs (recycled slot) along with
            // SLOT_NONE padding; both fall back for the exact diagnostic.
            if let Some(o) = self.resolved(obj) {
                if o.alive {
                    if let Some(bits) = o.bytes.word_init(t.size_bytes() as usize) {
                        if PROFILE {
                            self.prof.word_fast_hits += 1;
                        }
                        return Ok(Value::Int(CInt::from_bits(bits, t)));
                    }
                }
            }
        }
        if PROFILE {
            self.prof.word_fast_fallbacks += 1;
        }
        self.load_slot_generic(slot_base, slot, loc)
    }

    /// Slot load for slots with no static scalar shape (pointer
    /// variables, arrays, `_Bool`). The hot case — a live, current
    /// pointer slot holding exactly one stored pointer at offset 0 —
    /// completes in one guarded lookup: for that shape `check_access`
    /// cannot fail (offset 0 is aligned and in bounds of the 8-byte
    /// object, and a pointer lvalue agrees with `Elem::Ptr`) and
    /// `read_typed` would return the out-of-band value verbatim.
    /// Everything else (arrays, zero-byte null, uninitialized, stale
    /// refs) falls back to the generic path for the exact diagnostic.
    #[inline]
    fn load_slot_any<const PROFILE: bool>(
        &mut self,
        slot_base: usize,
        slot: u32,
        loc: SourceLoc,
    ) -> EResult<Value> {
        let obj = self.slots[slot_base + slot as usize];
        if obj != SLOT_NONE {
            if let Some(o) = self.resolved(obj) {
                if o.alive && !o.is_array && matches!(o.elem, Elem::Ptr(_)) {
                    if let [(0, v)] = o.ptr_slots.as_slice() {
                        let v = *v;
                        if PROFILE {
                            self.prof.word_fast_hits += 1;
                        }
                        return Ok(v);
                    }
                }
            }
        }
        if PROFILE {
            self.prof.word_fast_fallbacks += 1;
        }
        self.load_slot_generic(slot_base, slot, loc)
    }

    /// A fused slot(/const) ⊕ slot(/const) operator: both operands load
    /// on the fast path, then the shared `apply_binop` core evaluates —
    /// overflow, shift-range, and division diagnostics are the tree's.
    fn fused_bin<const PROFILE: bool>(
        &mut self,
        code: &CodeUnit,
        slot_base: usize,
        i: u32,
        b_const: bool,
        loc: SourceLoc,
    ) -> EResult<Value> {
        let f = code.fused[i as usize];
        let a = self.load_slot_fast::<PROFILE>(slot_base, f.a_slot, f.a_ty, f.a_loc)?;
        let b = if b_const {
            Value::Int(code.pool[f.b_slot as usize])
        } else {
            self.load_slot_fast::<PROFILE>(slot_base, f.b_slot, f.b_ty, f.b_loc)?
        };
        self.apply_binop(f.op, a, b, loc)
    }

    /// The value dereferenced by `*` / `[]`: the tree-walker's
    /// `eval_pointer` tail, over an already-computed operand.
    fn as_pointer(&mut self, v: Value, loc: SourceLoc) -> EResult<Pointer> {
        match self.use_value(v, loc)? {
            Value::Ptr(p) => Ok(p),
            Value::Int(c) if c.is_zero() => Err(self.ub(
                UbKind::NullDereference,
                loc,
                "dereference of a null pointer",
            )),
            Value::Int(c) => Err(self.ub(
                UbKind::NullDereference,
                loc,
                format!("dereference of invalid pointer value {c}"),
            )),
            Value::Missing(_) => unreachable!(),
        }
    }

    /// Simple or compound assignment to a scalar slot (the place was
    /// bound-checked before the right-hand side ran, preserving the
    /// tree's evaluation order). The fast path batches the init bitmap
    /// and size checks into one whole-word guarded store; `_Bool` and
    /// every non-pristine object state fall back to the typed core.
    fn assign_slot<const PROFILE: bool>(
        &mut self,
        code: &CodeUnit,
        slot_base: usize,
        i: u32,
        loc: SourceLoc,
    ) -> EResult<Value> {
        let st = code.stores[i as usize];
        let rv = self.vpop();
        let rv = self.use_value(rv, loc)?;
        let obj = self.slots[slot_base + st.slot as usize];
        debug_assert_ne!(obj, SLOT_NONE, "BindCheck must precede AssignSlot");
        if let (Some(t), Value::Int(c)) = (st.fast, rv) {
            let size = t.size_bytes() as usize;
            // Stale refs (recycled slot) fail `resolved` and take the
            // generic path, which reports the lifetime error.
            if let Some(o) = self.resolved(obj) {
                if o.alive && !o.is_const && o.bytes.len() == size {
                    match st.op {
                        None => {
                            if PROFILE {
                                self.prof.word_fast_hits += 1;
                            }
                            let stored = self.convert_int(c, t, loc);
                            let o = &mut self.objects[obj_slot(obj)];
                            o.bytes.store(0, size, stored.bits());
                            return Ok(Value::Int(stored));
                        }
                        Some(bop) if o.bytes.all_init(0, size) => {
                            let old = CInt::from_bits(o.bytes.load(0, size), t);
                            if PROFILE {
                                self.prof.word_fast_hits += 1;
                            }
                            let r = self.apply_binop(bop, Value::Int(old), Value::Int(c), loc)?;
                            let Value::Int(n) = r else { unreachable!() };
                            let stored = self.convert_int(n, t, loc);
                            let o = &mut self.objects[obj_slot(obj)];
                            o.bytes.store(0, size, stored.bits());
                            return Ok(Value::Int(stored));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        // Generic path: the typed core reports const violations,
        // uninitialized compound reads, and `_Bool` traps.
        if PROFILE {
            self.prof.word_fast_fallbacks += 1;
        }
        let p = self.designator_pointer(obj);
        let stored = match st.op {
            None => rv,
            Some(bop) => {
                let old = self.read_typed(p, loc)?;
                let old = self.use_value(old, loc)?;
                self.apply_binop(bop, old, rv, loc)?
            }
        };
        self.write_typed(p, stored, loc)
    }

    /// `++`/`--` through an arbitrary place: the tree-walker's
    /// `eval_incdec` tail over an already-computed pointer.
    fn incdec_at(&mut self, p: Pointer, delta: i64, loc: SourceLoc) -> EResult<(Value, Value)> {
        let old = self.read_typed(p, loc)?;
        let old = self.use_value(old, loc)?;
        let new = match old {
            Value::Int(n) => match consteval::arith(BinOp::Add, n, CInt::int(delta)) {
                Ok(r) => Value::Int(r),
                Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
            },
            Value::Ptr(ptr) => Value::Ptr(self.pointer_add(ptr, delta as i128, loc)?),
            Value::Missing(_) => unreachable!(),
        };
        let new = self.write_typed(p, new, loc)?;
        Ok((old, new))
    }

    /// Statement-position `x++` on a slot, value discarded: one op. The
    /// fast path runs when the object is pristine (alive, non-const,
    /// whole-word, fully initialized, non-`_Bool`); otherwise the
    /// generic tail reports exactly as the tree would.
    fn incdec_slot<const PROFILE: bool>(
        &mut self,
        code: &CodeUnit,
        slot_base: usize,
        i: u32,
        loc: SourceLoc,
    ) -> EResult<()> {
        let d = code.incdecs[i as usize];
        let obj = self.bound_slot(slot_base, d.slot, d.place_loc)?;
        if let Some(t) = d.fast {
            let size = t.size_bytes() as usize;
            if let Some(o) = self.resolved(obj) {
                if o.alive && !o.is_const && o.bytes.len() == size && o.bytes.all_init(0, size) {
                    let old = CInt::from_bits(o.bytes.load(0, size), t);
                    if PROFILE {
                        self.prof.word_fast_hits += 1;
                    }
                    let new = match consteval::arith(BinOp::Add, old, CInt::int(d.delta)) {
                        Ok(r) => r,
                        Err((kind, detail)) => return Err(self.ub(kind, loc, detail)),
                    };
                    let stored = self.convert_int(new, t, loc);
                    let o = &mut self.objects[obj_slot(obj)];
                    o.bytes.store(0, size, stored.bits());
                    return Ok(());
                }
            }
        }
        if PROFILE {
            self.prof.word_fast_fallbacks += 1;
        }
        let p = self.designator_pointer(obj);
        self.incdec_at(p, d.delta, loc)?;
        Ok(())
    }

    /// The allocation half of a declaration: scalar object, slot bound
    /// at the end of the declarator (§6.2.1:7) — before any initializer
    /// runs. The compiler routes redeclarations, `void`, and arrays to
    /// `DeclFull` instead, so no check is needed here.
    fn decl_alloc(&mut self, d: &Decl, slot_base: usize) {
        let elem = elem_of_ty(&d.ty);
        let obj = self.alloc(
            ObjName::Sym(d.name),
            elem.size() as usize,
            false,
            false,
            elem,
        );
        self.slots[slot_base + d.slot.index()] = obj;
    }

    /// The initialization half: converts like simple assignment
    /// (§6.7.9:11) through the typed core, at the initializer's own
    /// position — matching the tree's `init_loc`.
    fn decl_init<const PROFILE: bool>(
        &mut self,
        d: &Decl,
        slot_base: usize,
        v: Value,
        loc: SourceLoc,
    ) -> EResult<()> {
        let v = self.use_value(v, loc)?;
        let obj = self.slots[slot_base + d.slot.index()];
        let place = Pointer {
            obj,
            off: 0,
            ty: elem_of_ty(&d.ty).pointee(),
        };
        // The object is freshly allocated (alive, not yet const, no
        // pointer bytes), so a scalar initializer almost always takes
        // the one-word store.
        if self.write_word_fast(place, &v, loc).is_some() {
            if PROFILE {
                self.prof.word_fast_hits += 1;
            }
            return Ok(());
        }
        if PROFILE {
            self.prof.word_fast_fallbacks += 1;
        }
        self.write_typed(place, v, loc)?;
        Ok(())
    }

    /// Close out a declaration: the const qualifier guards the object
    /// only once its declaration completes (§6.7.3:6 vs §6.7.9).
    fn decl_finish(&mut self, d: &Decl, slot_base: usize) {
        let obj = self.slots[slot_base + d.slot.index()];
        self.objects[obj_slot(obj)].is_const = d.quals.is_const;
    }

    /// Element-stepping half of `p[i]` without the error plumbing: the
    /// exact liveness / `void *` / §6.5.6:8 range checks `pointer_add`
    /// performs, returning `None` (→ generic path, full diagnostics)
    /// the moment any would fail.
    #[inline]
    fn index_ptr_fast(&self, p: Pointer, iv: &Value) -> Option<Pointer> {
        let Value::Int(c) = iv else { return None };
        let esize = p.ty.size()? as i128;
        let o = self.resolved(p.obj)?;
        if !o.alive {
            return None;
        }
        let off = p.off as i128 + c.math() * esize;
        if off < 0 || off > o.bytes.len() as i128 {
            return None;
        }
        Some(Pointer {
            obj: p.obj,
            off: off as i64,
            ty: p.ty,
        })
    }

    /// One guarded whole-word load through `p`, batching the liveness,
    /// bounds, alignment, effective-type, and per-byte init checks
    /// `read_typed` would run for this statically-common shape (scalar
    /// non-`_Bool` lvalue over an object declared with that very type,
    /// no pointer bytes anywhere in it). `None` means the state is too
    /// interesting for one word op: the typed core runs and reports.
    /// Skipping the footprint push here is the sound §6.5:2 elision —
    /// this op shape is only emitted where overlap is impossible.
    #[inline]
    fn read_word_fast(&self, p: Pointer) -> Option<Value> {
        let PointeeTy::Scalar(t) = p.ty else {
            return None;
        };
        if t == IntTy::Bool {
            return None;
        }
        let o = self.resolved(p.obj)?;
        let size = t.size_bytes() as usize;
        let off = p.off;
        if o.alive
            && o.ptr_slots.is_empty()
            && off >= 0
            && off as usize + size <= o.bytes.len()
            && off % p.ty.align() == 0
            // Exact effective-type match — or a character-type read,
            // which §6.5:7 allows against any effective type (including
            // a heap block's `Untyped`, which char traffic never
            // imprints).
            && (o.elem == Elem::Scalar(t) || size == 1)
            && o.bytes.all_init(off as usize, size)
        {
            let bits = o.bytes.load(off as usize, size);
            return Some(Value::Int(CInt::from_bits(bits, t)));
        }
        None
    }

    /// Whole-word store counterpart of [`Self::read_word_fast`]: the
    /// same guards plus writability (`const`, liveness), then one
    /// converted store that marks the word initialized. The effective
    /// type stays exact — the guard requires the object's declared
    /// element to already *be* this scalar, so no imprinting happens.
    #[inline]
    fn write_word_fast(&mut self, p: Pointer, v: &Value, loc: SourceLoc) -> Option<Value> {
        let Value::Int(c) = *v else { return None };
        let PointeeTy::Scalar(t) = p.ty else {
            return None;
        };
        if t == IntTy::Bool {
            return None;
        }
        let size = t.size_bytes() as usize;
        let off = p.off;
        {
            let o = self.resolved(p.obj)?;
            if !(o.alive
                && !o.is_const
                && o.ptr_slots.is_empty()
                && off >= 0
                && off as usize + size <= o.bytes.len()
                && off % p.ty.align() == 0
                // Exact effective-type match — or a character-type
                // store, allowed against any effective type and never
                // imprinting one (§6.5:6), so the object's `elem` stays
                // exactly what the typed core would leave.
                && (o.elem == Elem::Scalar(t) || size == 1))
            {
                return None;
            }
        }
        let stored = self.convert_int(c, t, loc);
        self.objects[obj_slot(p.obj)]
            .bytes
            .store(off as usize, size, stored.bits());
        Some(Value::Int(stored))
    }

    // ----- fused byte sweeps -----

    /// Attempt the fused byte sweep `sweeps[i]`: one validation pass
    /// proving that no iteration of the generic loop could report a
    /// diagnostic (or observe state the bulk move wouldn't produce),
    /// then the whole copy/fill as one move, charging exactly the steps
    /// the generic loop would have settled. Returns the loop's exit pc
    /// on a completed sweep; `None` falls through to the generic ops,
    /// which replay the iterations — and their diagnostics — byte for
    /// byte.
    fn byte_sweep<const PROFILE: bool>(
        &mut self,
        code: &CodeUnit,
        i: u32,
        slot_base: usize,
        ops_since: &mut u64,
    ) -> Option<Pc> {
        let sw = code.sweeps[i as usize];
        let r = self.try_byte_sweep(sw, slot_base, ops_since);
        if PROFILE {
            match r {
                Some(_) => self.prof.sweep_hits += 1,
                None => self.prof.sweep_fallbacks += 1,
            }
        }
        r
    }

    fn try_byte_sweep(
        &mut self,
        sw: FusedSweep,
        slot_base: usize,
        ops_since: &mut u64,
    ) -> Option<Pc> {
        // The counter: a live, initialized, non-`const` plain `int`
        // whose value only the loop's own `k++` steps.
        let k_ref = self.slots[slot_base + sw.k_slot as usize];
        if k_ref == SLOT_NONE {
            return None;
        }
        let k = self.resolved(k_ref)?;
        if !k.alive
            || k.is_const
            || k.elem != Elem::Scalar(IntTy::Int)
            || k.bytes.len() != 4
            || !k.bytes.all_init(0, 4)
        {
            return None;
        }
        let k0 = k.bytes.load(0, 4) as u32 as i32 as i64;
        let count = sw.bound - k0;
        if count <= 0 {
            // Zero iterations: the generic condition simply fails once.
            return None;
        }
        let k_slab = obj_slot(k_ref);
        // The pointers: live character pointers read whole from their
        // variables, both accessing through the *same* character type so
        // the store's §6.5.16.1:2 conversion is the identity.
        let (pd, d_var) = self.sweep_pointer(slot_base, sw.d_slot)?;
        let PointeeTy::Scalar(char_t) = pd.ty else {
            return None;
        };
        if !pd.ty.is_char() {
            return None;
        }
        let (src, fill) = match sw.src {
            SweepSrc::Slot(s) => {
                let (ps, s_var) = self.sweep_pointer(slot_base, s)?;
                if ps.ty != pd.ty {
                    return None;
                }
                (Some((ps, s_var)), 0u8)
            }
            SweepSrc::Fill(c) => {
                // The generic store converts the constant every
                // iteration; only an exact (note-free) conversion is
                // bulk-fillable.
                let out = if c.ty == char_t {
                    c
                } else {
                    let (out, impl_defined) = c.convert(char_t);
                    if impl_defined {
                        return None;
                    }
                    out
                };
                (None, out.bits() as u8)
            }
        };
        // Destination object: alive, writable, no stored-pointer bytes
        // anywhere (a byte hitting a pointer's representation would
        // destroy it; a byte *read* from one would stop the engine),
        // and the whole swept range in bounds. Character lvalues pass
        // §6.5:7 against any element type and never imprint heap
        // memory, so no type state changes either.
        let d_slab = obj_slot(pd.obj);
        {
            let t = self.resolved(pd.obj)?;
            if !t.alive || t.is_const || !t.ptr_slots.is_empty() {
                return None;
            }
            if pd.off + k0 < 0 || pd.off + sw.bound > t.bytes.len() as i64 {
                return None;
            }
        }
        // Writing must not touch the loop's own state: the counter, or
        // the pointer variables (those hold stored pointers, so the
        // empty-`ptr_slots` guard above already excludes them — the
        // counter check is the load-bearing one).
        if d_slab == k_slab || d_slab == d_var {
            return None;
        }
        let src = match src {
            Some((ps, s_var)) => {
                if d_slab == s_var {
                    return None;
                }
                let t = self.resolved(ps.obj)?;
                if !t.alive || !t.ptr_slots.is_empty() {
                    return None;
                }
                let lo = ps.off + k0;
                if lo < 0 || ps.off + sw.bound > t.bytes.len() as i64 {
                    return None;
                }
                // Every source byte initialized up front; and reading
                // the counter's own object would see it change
                // mid-loop, so that aliasing falls back too.
                if !t.bytes.all_init(lo as usize, count as usize) {
                    return None;
                }
                if obj_slot(ps.obj) == k_slab {
                    return None;
                }
                Some(ps)
            }
            None => None,
        };
        // Step budget: if the generic loop would trip the limit at one
        // of its back-edges, run it generically so the stop lands at
        // exactly that back-edge.
        let total = count as u64 * sw.per_iter_ops + sw.tail_ops;
        if self.steps + *ops_since + total > self.limits.max_steps {
            return None;
        }
        // -- validated: perform the sweep --
        let n = count as usize;
        let d_lo = (pd.off + k0) as usize;
        match src {
            Some(ps) => {
                let s_slab = obj_slot(ps.obj);
                let s_lo = (ps.off + k0) as usize;
                // Forward per-byte order, exactly the generic loop's —
                // an overlap within one object propagates forward.
                for j in 0..n {
                    let b = self.objects[s_slab].bytes.get_byte(s_lo + j);
                    self.objects[d_slab].bytes.set_byte(d_lo + j, b);
                }
            }
            None => {
                for j in 0..n {
                    self.objects[d_slab].bytes.set_byte(d_lo + j, fill);
                }
            }
        }
        self.objects[d_slab].bytes.mark_init(d_lo, n);
        // The counter leaves the loop at its bound, as `k++` would.
        self.objects[k_slab]
            .bytes
            .store(0, 4, (sw.bound as i32 as u32) as u64);
        *ops_since += total;
        Some(sw.exit)
    }

    /// The pointer a sweep reads from pointer-variable slot `slot`,
    /// when that read could not report or stop: bound, current, alive,
    /// exactly one stored pointer covering bytes 0..8. Also returns the
    /// variable's own slab slot, so the sweep can refuse to write
    /// through its own pointer storage.
    fn sweep_pointer(&self, slot_base: usize, slot: u32) -> Option<(Pointer, usize)> {
        let r = self.slots[slot_base + slot as usize];
        if r == SLOT_NONE {
            return None;
        }
        let o = self.resolved(r)?;
        if !o.alive || o.bytes.len() != 8 {
            return None;
        }
        match o.ptr_slots.as_slice() {
            [(0, Value::Ptr(p))] => Some((*p, obj_slot(r))),
            _ => None,
        }
    }
}
