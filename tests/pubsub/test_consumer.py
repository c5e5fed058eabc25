"""Tests for the consumer processing model."""

import pytest

from repro.obs.trace import Tracer, hops
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import SubscriptionConfig


def msg(payload, key=None, offset=0):
    return Message(
        topic="t", partition=0, offset=offset, key=key,
        payload=payload, publish_time=0.0,
    )


class TestProcessing:
    def test_serial_with_service_time(self, sim):
        consumer = Consumer(sim, "c", service_time=1.0)
        acked = []
        for i in range(3):
            consumer.deliver(msg(i, offset=i), ack=lambda i=i: acked.append((i, sim.now())), nack=lambda: None)
        sim.run()
        assert acked == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_handler_false_nacks(self, sim):
        consumer = Consumer(
            sim, "c", handler=lambda m: False
        )
        outcomes = []
        consumer.deliver(msg(1), ack=lambda: outcomes.append("ack"),
                         nack=lambda: outcomes.append("nack"))
        sim.run()
        assert outcomes == ["nack"]
        assert consumer.failed == 1

    def test_handler_exception_nacks(self, sim):
        error = RuntimeError("handler broke")

        def boom(m):
            raise error

        consumer = Consumer(sim, "c", handler=boom)
        outcomes = []
        consumer.deliver(msg(1), ack=lambda: outcomes.append("ack"),
                         nack=lambda: outcomes.append("nack"))
        sim.run()
        assert outcomes == ["nack"]
        assert consumer.failed == 1
        assert consumer.handler_errors == 1
        assert consumer.last_error is error

    def test_handler_exception_is_traced(self, sim):
        tracer = Tracer(sim)

        def boom(m):
            raise KeyError(m.key)

        consumer = Consumer(sim, "c", handler=boom, tracer=tracer)
        consumer.deliver(msg({"version": 7}, key="k1", offset=3),
                         ack=lambda: None, nack=lambda: None)
        consumer.deliver(msg({"version": 8}, key="k2", offset=4),
                         ack=lambda: None, nack=lambda: None)
        sim.run()
        errors = [e for e in tracer.log if e.hop == hops.CONSUMER_HANDLER_ERROR]
        assert consumer.handler_errors == len(errors) == 2
        first = errors[0]
        assert (first.component, first.key, first.version) == ("c", "k1", 7)
        assert first.attrs == {
            "consumer": "c", "partition": 0, "offset": 3, "batch": 1,
            "error": "KeyError",
        }
        assert (errors[1].key, errors[1].attrs["offset"]) == ("k2", 4)

    def test_batch_handler_exception_traces_the_group(self, sim):
        tracer = Tracer(sim)

        def boom(messages):
            raise RuntimeError("group broke")

        consumer = Consumer(sim, "c", batch_handler=boom, tracer=tracer)
        group = [msg(i, key=f"k{i}", offset=i) for i in range(3)]
        consumer.deliver_batch(group, ack=lambda: None, nack=lambda: None)
        sim.run()
        (error,) = [e for e in tracer.log
                    if e.hop == hops.CONSUMER_HANDLER_ERROR]
        assert error.key == "k0" and error.version is None
        assert error.attrs["offset"] == 0 and error.attrs["batch"] == 3
        assert consumer.handler_errors == 1 and consumer.failed == 3

    def test_untraced_handler_error_records_nothing(self, sim):
        tracer = Tracer(sim)
        consumer = Consumer(sim, "c", handler=lambda m: 1 / 0)
        consumer.deliver(msg(1), ack=lambda: None, nack=lambda: None)
        sim.run()
        assert consumer.handler_errors == 1
        assert len(tracer.log) == 0

    def test_raising_handler_is_redelivered_and_counted(self, sim):
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=1)
        group = broker.consumer_group(
            "t", "g", SubscriptionConfig(ack_timeout=100.0)
        )
        attempts = []

        def flaky(m):
            attempts.append(m.payload)
            if len(attempts) <= 2:
                raise ValueError(f"attempt {len(attempts)}")
            return True

        consumer = Consumer(sim, "c", handler=flaky)
        group.join(consumer)
        broker.publish("t", None, "x")
        sim.run_for(10.0)
        assert attempts == ["x", "x", "x"]
        assert consumer.handler_errors == 2
        assert str(consumer.last_error) == "attempt 2"
        assert consumer.failed == 2
        assert consumer.processed == 1

    def test_service_time_fn_per_message(self, sim):
        consumer = Consumer(
            sim, "c",
            service_time_fn=lambda m: 5.0 if m.payload == "slow" else 0.5,
        )
        done = []
        consumer.deliver(msg("slow"), ack=lambda: done.append(("slow", sim.now())), nack=lambda: None)
        consumer.deliver(msg("fast", offset=1), ack=lambda: done.append(("fast", sim.now())), nack=lambda: None)
        sim.run()
        # FIFO: fast waits behind slow — head-of-line blocking
        assert done == [("slow", 5.0), ("fast", 5.5)]

    def test_queue_capacity_nacks_overflow(self, sim):
        # capacity counts queued items; the first stays queued until the
        # processing loop starts, so both later deliveries are refused
        consumer = Consumer(sim, "c", service_time=10.0, queue_capacity=1)
        outcomes = []
        for i in range(3):
            consumer.deliver(msg(i, offset=i), ack=lambda: outcomes.append("ack"),
                             nack=lambda: outcomes.append("nack"))
        sim.run(until=5.0)
        assert outcomes.count("nack") == 2
        assert outcomes.count("ack") == 0
        sim.run(until=15.0)
        assert outcomes.count("ack") == 1  # the accepted one completes


class TestCrashRecover:
    def test_crash_loses_queue_no_acks(self, sim):
        consumer = Consumer(sim, "c", service_time=1.0)
        acked = []
        for i in range(3):
            consumer.deliver(msg(i, offset=i), ack=lambda i=i: acked.append(i), nack=lambda: None)
        sim.call_after(0.5, consumer.crash)
        sim.run()
        assert acked == []
        assert consumer.queue_depth == 0

    def test_deliveries_while_down_dropped(self, sim):
        consumer = Consumer(sim, "c")
        consumer.crash()
        consumer.deliver(msg(1), ack=lambda: None, nack=lambda: None)
        assert consumer.dropped_while_down == 1

    def test_recover_runs_hooks(self, sim):
        consumer = Consumer(sim, "c")
        fired = []
        consumer.on_recover(lambda: fired.append(True))
        consumer.crash()
        consumer.recover()
        assert fired == [True]
        consumer.recover()  # idempotent: no second hook fire
        assert fired == [True]

    def test_crash_mid_processing_no_ack(self, sim):
        consumer = Consumer(sim, "c", service_time=2.0)
        acked = []
        consumer.deliver(msg(1), ack=lambda: acked.append(1), nack=lambda: None)
        sim.call_after(1.0, consumer.crash)
        sim.run()
        assert acked == []


class TestFreeConsumer:
    def test_free_consumer_gets_everything(self, sim):
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=4)
        got_a, got_b = [], []
        broker.free_consumer("t", Consumer(sim, "a", handler=lambda m: got_a.append(m.payload)))
        broker.free_consumer("t", Consumer(sim, "b", handler=lambda m: got_b.append(m.payload)))
        for i in range(40):
            broker.publish("t", f"k{i}", i)
        sim.run_for(5.0)
        assert sorted(got_a) == list(range(40))
        assert sorted(got_b) == list(range(40))
