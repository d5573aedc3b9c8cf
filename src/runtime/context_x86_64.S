/* x86-64 SysV context switch for the StackThreads/MP-style runtime.
 *
 * Layout of a saved context, from the saved RSP upward:
 *
 *   [rsp+ 0] r15
 *   [rsp+ 8] r14
 *   [rsp+16] r13
 *   [rsp+24] r12
 *   [rsp+32] rbx
 *   [rsp+40] rbp
 *   [rsp+48] resume address
 *
 * Contexts are resumed by popping the resume address and *jumping* to it
 * rather than executing `ret`.  A `ret` whose matching `call` ran on a
 * different stack is guaranteed to miss the return-stack-buffer, and --
 * worse -- leaves the RSB desynchronized so the next several genuine
 * returns in the resumed context mispredict too.  An indirect jmp is
 * predicted from the BTB (switch sites overwhelmingly resume the same
 * partner) and leaves the RSB alone.  Measured on the fork fast path this
 * is worth >10ns per fork/join cycle.
 *
 * The one exception is a forked child's exit to its own parent
 * (ST_CTX_EXIT_TAIL below): the target is the parent saved by the very
 * st_ctx_fork whose call the child's return unwinds, so a `ret` *does*
 * meet its own `call` and keeps the RSB balanced.
 *
 * st_ctx_swap(void** save_sp /%rdi/, void* target_sp /%rsi/, void* msg /%rdx/)
 *   - pushes the six callee-saved registers (its own return address,
 *     already on the stack, becomes the resume-address slot),
 *   - stores RSP into *save_sp,
 *   - adopts target_sp,
 *   - pops the six registers of the target and jumps to its resume
 *     address, carrying `msg` (in RAX) as the apparent return value.
 */

    .text
    .globl st_ctx_swap
    .type  st_ctx_swap, @function
st_ctx_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq  %rsp, (%rdi)      /* *save_sp = current sp */
    movq  %rsi, %rsp        /* adopt target context  */
    movq  %rdx, %rax        /* carry msg             */
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    popq  %rcx              /* resume address        */
    jmpq  *%rcx
    .size st_ctx_swap, .-st_ctx_swap

/* The exit of a context entry function (st_ctx_fork, st_ctx_boot).  The
 * entry function has returned a ContextExit in rax:rdx -- the sp of a
 * context saved by st_ctx_swap/st_ctx_fork and the msg to deliver there.
 * Adopt it, restore its callee-saved registers and resume it with msg as
 * the apparent return value.  \ret_if_rbx selects a real `ret` when the
 * target is the context whose sp the caller kept in %rbx: for st_ctx_fork
 * that is the parent saved by the same call (a child finishing under its
 * own parent, the common case), where the `ret` pairs with the parent's
 * `call st_ctx_fork` and the return-stack buffer stays in step for every
 * frame above it.  Any other target is resumed by a jump, like
 * st_ctx_swap, so the rare paths predict no worse than a switch.
 */
.macro ST_CTX_EXIT_TAIL ret_if_rbx
    movq  %rax, %rsp        /* adopt the target context */
    movq  %rdx, %rax        /* carry msg                */
.if \ret_if_rbx
    cmpq  %rsp, %rbx        /* our own parent?  (pops keep the flags) */
.endif
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
.if \ret_if_rbx
    jne   1f
    ret
1:
.endif
    popq  %rcx              /* resume address           */
    jmpq  *%rcx
.endm

/* st_ctx_fork(void** save_sp /%rdi/, void* stack_top /%rsi/,
 *             ContextEntry fn /%rdx/, void* arg /%rcx/)
 *
 * Fused save-parent + enter-fresh-child, the fork fast path's switch:
 * saves the caller exactly like st_ctx_swap, then adopts the child's
 * (empty) stack and calls fn(nullptr, arg) directly -- no prepared frame,
 * no boot trampoline, six fewer pops and one fewer memory-indirect
 * control transfer than prepare+swap.  fn returns the context to
 * continue (ST_CTX_EXIT_TAIL), possibly on another OS thread if the
 * child migrated or its parent was stolen: the %rbx test then fails and
 * the tail jumps (`ret` and the jump differ only in prediction).  When
 * the saved parent is resumed by anyone, control re-emerges at the call
 * site with the carried msg as the return value.
 */
    .globl st_ctx_fork
    .type  st_ctx_fork, @function
st_ctx_fork:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq  %rsp, (%rdi)      /* *save_sp = parent context  */
    movq  %rsp, %rbx        /* callee-saved across fn: the exit tail's
                             * "own parent" test (the parent's rbx is
                             * already saved above)  */
    movq  %rsi, %rsp        /* adopt the child's stack    */
    andq  $-16, %rsp        /* SysV: 16-aligned pre-call  */
    xorl  %ebp, %ebp        /* terminate the frame chain: unwinders
                             * (TSan's included) must not walk off the
                             * stacklet into the parent's rbp chain  */
    movq  %rcx, %rsi        /* second argument: arg       */
    xorl  %edi, %edi        /* first argument: msg = null */
    callq *%rdx             /* fn(msg, arg) -> ContextExit */
    ST_CTX_EXIT_TAIL 1
    .size st_ctx_fork, .-st_ctx_fork

    .globl st_ctx_boot
    .type  st_ctx_boot, @function
st_ctx_boot:
    /* Reached via the resume jump in st_ctx_swap from a context built by
     * st_ctx_prepare():
     *   rax = msg,  [rsp] = fn,  [rsp+8] = arg, rsp+16 is 16-byte aligned.
     */
    movq  %rax, %rdi        /* first argument: msg  */
    popq  %rdx              /* fn                   */
    popq  %rsi              /* second argument: arg */
    callq *%rdx             /* fn(msg, arg) -> ContextExit */
    ST_CTX_EXIT_TAIL 0
    .size st_ctx_boot, .-st_ctx_boot

    .section .note.GNU-stack, "", @progbits
