package repro.core

/** LCP-FSM (§7.2): decides, per frame, whether to actually *run* LCP-T to
  * compare it against the LCP-S size estimate, or to skip the trial and use
  * LCP-S directly.
  *
  * Rationale from the paper: LCP-S's compressed size is stable over time so
  * the most recent actual LCP-S size serves as its estimate, while LCP-T's
  * size varies and must be measured by running it. While LCP-S keeps
  * winning, trials of LCP-T are exponentially backed off (S2X → S4X → …),
  * bounding selection overhead below ~5 % even when LCP-S wins every frame.
  * Any LCP-T win resets to comparing every frame (LCP-T then runs anyway as
  * the chosen method, so comparison is free).
  */
final class LcpFsm {
  import LcpFsm._

  private var skipInterval = 1  // compare every `skipInterval` frames
  private var sinceCompare = 0

  /** What to do for the next frame. */
  def nextAction(): Action =
    if (sinceCompare + 1 >= skipInterval) Compare else UseSpatial

  /** Report the outcome of the frame: whether a comparison happened and who
    * won. Must be called once per frame. */
  def observe(compared: Boolean, spatialWon: Boolean): Unit = {
    if (!compared) { sinceCompare += 1; return }
    sinceCompare = 0
    if (spatialWon) skipInterval = math.min(skipInterval * 2, MaxSkip)
    else skipInterval = 1
  }

  /** Current backoff interval (read by `LcpFsmSpec`). */
  def interval: Int = skipInterval
}

object LcpFsm {
  sealed trait Action
  /** Run LCP-T, compare against the LCP-S estimate, keep the winner. */
  case object Compare extends Action
  /** Skip the LCP-T trial; compress with LCP-S directly. */
  case object UseSpatial extends Action

  /** Cap of the trial backoff: at steady state 1 in MaxSkip frames pays an
    * extra LCP-T run, keeping selection overhead within the paper's <5 %. */
  val MaxSkip = 32
}
