package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite

class ForkSpec extends AnyFunSuite {

  test("results come back in input order; an empty list gives an empty result") {
    assert(Fork.map(0 until 200)(i => i * i) == (0 until 200).map(i => i * i))
    assert(Fork.map(Seq.empty[Int])(_ + 1).isEmpty)
  }

  test("the first task runs on the calling thread") {
    val caller = Thread.currentThread()
    assert(Fork.map(0 until 4)(_ => Thread.currentThread()).head eq caller)
  }

  test("a forked task's failure reaches the caller as the same exception, the first in input order") {
    val errors = (0 until 4).map(i => new IllegalArgumentException(s"task $i"))
    val e = intercept[IllegalArgumentException](Fork.map(0 until 4)(i => if (i >= 2) throw errors(i) else i))
    assert(e eq errors(2))
  }

  test("every task is joined before a failure is rethrown") {
    val done = new AtomicInteger
    intercept[IllegalStateException](Fork.map(0 until 4) { i =>
      if (i == 0) throw new IllegalStateException("first")
      Thread.sleep(20)
      done.incrementAndGet()
    })
    assert(done.get == 3)
  }

  test("a started task's result comes back at join") {
    val started = (0 until 8).map(i => Fork.start(i)(i => i * i))
    assert(started.map(_.join()) == (0 until 8).map(i => i * i))
  }

  test("a started task's failure is rethrown at join as the same exception") {
    val error   = new IllegalArgumentException("started task")
    val started = Fork.start(0)(_ => throw error)
    assert(intercept[IllegalArgumentException](started.join()) eq error)
  }

  test("nested forks, on the calling thread and on pool threads, complete") {
    val got  = Fork.map(0 until 8)(i => Fork.map(0 until 8)(j => Fork.map(0 until 4)(k => i + j + k).sum).sum)
    val want = (0 until 8).map(i => (0 until 8).map(j => (0 until 4).map(k => i + j + k).sum).sum)
    assert(got == want)
  }
}
