"""Unit tests for the synthetic kernel state machine and services."""

import pytest

from repro.common.rng import RngStream
from repro.common.types import DataClass, Mode, Op
from repro.synthetic import layout as lay
from repro.synthetic import services
from repro.synthetic.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(4, RngStream(42, "test"))


def records_of(kernel, cpu):
    """The records *kernel* has emitted on *cpu* so far."""
    return kernel.builder.build(validate=False).records(cpu)


def ops_of(kernel, cpu):
    return [r.op for r in records_of(kernel, cpu)]


class TestKernelState:
    def test_spawn_assigns_pids(self, kernel):
        a, b = kernel.spawn(), kernel.spawn(parent=1)
        assert (a.pid, b.pid) == (1, 2)
        assert b.parent == 1

    def test_alloc_frame_is_page_aligned(self, kernel):
        for _ in range(20):
            assert kernel.alloc_frame() % lay.PAGE == 0

    def test_free_frames_reused_lifo(self, kernel):
        kernel.frame_reuse_prob = 1.0
        kernel.free_frames([lay.FRAME_POOL + 5 * lay.PAGE])
        assert kernel.alloc_frame() == lay.FRAME_POOL + 5 * lay.PAGE

    def test_free_frame_list_bounded(self, kernel):
        kernel.free_frames([lay.FRAME_POOL + i * lay.PAGE for i in range(100)])
        assert len(kernel._free_frames) <= 64

    def test_next_barrier_partitions_by_parties(self, kernel):
        full = {kernel.next_barrier(4) for _ in range(20)}
        partial = {kernel.next_barrier(3) for _ in range(20)}
        assert full.isdisjoint(partial)

    def test_bump_counter_emits_rmw(self, kernel):
        kernel.bump_counter(0, "v_intr")
        assert ops_of(kernel, 0) == [Op.READ, Op.WRITE]
        assert all(r.dclass == DataClass.INFREQ_COMM
                   for r in records_of(kernel, 0))

    def test_lock_unlock_validates(self, kernel):
        kernel.lock(1, "sched_lock")
        kernel.unlock(1, "sched_lock")
        kernel.build()  # validation passes

    def test_kmem_walk_emits_requested_refs(self, kernel):
        kernel.kmem_walk(2, refs=50)
        reads = [r for r in records_of(kernel, 2) if r.op == Op.READ]
        assert len(reads) >= 50
        assert all(lay.KMEM_BASE <= r.addr < lay.KMEM_BASE + lay.KMEM_BYTES
                   for r in reads)

    def test_kmem_walk_uses_many_basic_blocks(self, kernel):
        kernel.kmem_walk(0, refs=400)
        pcs = {r.pc for r in records_of(kernel, 0)}
        assert len(pcs) > 5

    def test_idle_records_are_idle_mode(self, kernel):
        kernel.idle(3, spins=5)
        stream = records_of(kernel, 3)
        assert len(stream) == 5
        assert all(r.mode == Mode.IDLE for r in stream)

    def test_readahead_touch_stays_in_range(self, kernel):
        base = lay.BUFFER_CACHE
        kernel.readahead_touch(0, base, 4096, fraction=0.5)
        stream = records_of(kernel, 0)
        assert stream
        assert all(base <= r.addr < base + 4096 for r in stream)


class TestServices:
    def test_page_fault_zero_emits_block_zero(self, kernel):
        proc = kernel.spawn()
        frame = services.page_fault(kernel, 0, proc)
        assert frame in proc.frames
        ops = ops_of(kernel, 0)
        assert Op.BLOCK_START in ops and Op.BLOCK_END in ops
        # Zero fill: no block-op reads.
        trace = kernel.builder.build(validate=False)
        assert not any(r.op == Op.READ and r.blockop for r in trace.records(0))

    def test_page_fault_copy_reads_source(self, kernel):
        proc = kernel.spawn()
        src = kernel.layout.buffer(0)
        services.page_fault(kernel, 0, proc, copy_from=src)
        trace = kernel.builder.build(validate=False)
        reads = [r for r in trace.records(0) if r.op == Op.READ and r.blockop]
        assert reads

    def test_fork_copies_pages_and_registers_child(self, kernel):
        parent = kernel.spawn()
        services.page_fault(kernel, 0, parent)
        child = services.fork(kernel, 0, parent, copy_pages=2)
        assert child.pid in kernel.processes
        assert len(child.frames) == 2
        kernel.build()  # locks balanced

    def test_exec_zeroes_bss(self, kernel):
        proc = kernel.spawn()
        services.exec_image(kernel, 1, proc, arg_bytes=256, zero_pages=2)
        assert len(proc.frames) >= 3
        assert len(kernel.builder.blockops) == 3

    def test_file_io_read_copies_buffer_to_user(self, kernel):
        proc = kernel.spawn()
        services.file_io(kernel, 0, proc, size=1024)
        copies = list(kernel.builder.blockops)
        assert len(copies) == 1
        assert copies[0].size == 1024
        kernel.build()

    def test_file_io_write_copies_user_to_buffer(self, kernel):
        proc = kernel.spawn()
        buf = kernel.layout.buffer(3)
        services.file_io(kernel, 0, proc, size=512, is_write=True, buf=buf)
        desc = next(iter(kernel.builder.blockops))
        assert desc.dst == buf

    def test_context_switch_updates_running(self, kernel):
        a, b = kernel.spawn(), kernel.spawn()
        services.context_switch(kernel, 2, a, b)
        assert kernel.running[2] == b.pid
        kernel.build()

    def test_timer_interrupt_balanced_locks(self, kernel):
        services.timer_interrupt(kernel, 0)
        kernel.build()

    def test_cross_interrupt_touches_both_cpus(self, kernel):
        services.cross_interrupt(kernel, 0, 2)
        assert records_of(kernel, 0)
        assert records_of(kernel, 2)

    def test_pager_scan_reads_all_counters(self, kernel):
        proc = kernel.spawn()
        for _ in range(4):
            services.page_fault(kernel, 0, proc)
        services.pager_scan(kernel, 1)
        reads = [r for r in records_of(kernel, 1)
                 if r.dclass == DataClass.INFREQ_COMM and r.op == Op.READ]
        assert len(reads) >= len(lay.INFREQ_COUNTERS)

    def test_pager_reclaims_frames(self, kernel):
        proc = kernel.spawn()
        for _ in range(6):
            services.page_fault(kernel, 0, proc)
        before = len(proc.frames)
        services.pager_scan(kernel, 0)
        assert len(proc.frames) <= before

    def test_process_exit_frees_frames(self, kernel):
        proc = kernel.spawn()
        services.page_fault(kernel, 0, proc)
        services.process_exit(kernel, 0, proc)
        assert proc.pid not in kernel.processes
        assert kernel._free_frames
        kernel.build()

    def test_syscall_reads_dispatch_table(self, kernel):
        proc = kernel.spawn()
        services.syscall(kernel, 0, proc, nr=17)
        reads = [r for r in records_of(kernel, 0)
                 if r.dclass == DataClass.SYSCALL_TABLE]
        assert len(reads) == 1
        assert reads[0].addr == lay.SYSCALL_TABLE + 17 * 4


class TestNetworkPipeSignal:
    def test_network_receive_chains_two_copies(self, kernel):
        proc = kernel.spawn()
        services.network_receive(kernel, 0, proc, size=512)
        copies = list(kernel.builder.blockops)
        assert len(copies) == 2
        # Chain: the first copy's destination is the second copy's source.
        assert copies[1].src == copies[0].dst
        kernel.build()

    def test_network_send_reverses_direction(self, kernel):
        proc = kernel.spawn()
        proc.frames.append(kernel.alloc_frame())
        services.network_send(kernel, 0, proc, size=256)
        copies = list(kernel.builder.blockops)
        assert len(copies) == 2
        assert copies[0].src == proc.frames[-1]
        assert copies[1].src == copies[0].dst
        kernel.build()

    def test_network_size_clamped_to_mbuf(self, kernel):
        proc = kernel.spawn()
        services.network_receive(kernel, 0, proc, size=100_000)
        assert all(op.size <= lay.MBUF_BYTES
                   for op in kernel.builder.blockops)

    def test_pipe_transfer_chains_through_buffer(self, kernel):
        writer, reader = kernel.spawn(), kernel.spawn()
        services.pipe_transfer(kernel, 1, writer, reader, size=256)
        copies = list(kernel.builder.blockops)
        assert len(copies) == 2
        assert copies[1].src == copies[0].dst
        assert lay.MBUF_POOL <= copies[0].dst < lay.MBUF_POOL + \
            lay.NUM_MBUFS * lay.MBUF_BYTES
        kernel.build()

    def test_signal_delivery_small_copy(self, kernel):
        proc = kernel.spawn()
        services.signal_delivery(kernel, 0, proc)
        copies = list(kernel.builder.blockops)
        assert len(copies) == 1
        assert copies[0].size < 1024
        kernel.build()
